package core

import (
	"strings"
	"testing"
)

// TestCheckStructureVerticalInvariants breaks, one at a time, each of the
// vertical invariants CheckStructure states on tower heights and checks
// that the validator names the damage.
func TestCheckStructureVerticalInvariants(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		damage     func(l *SkipList[int, int], n *SLNode[int, int])
	}{
		{"linked on level 3, not on level 2", "not on level 2", func(l *SkipList[int, int], n *SLNode[int, int]) {
			prev, _ := l.searchToLevel(nil, n.key, 2, true)
			prev.cell(2).succ.store(clean(n.cell(2).right()))
		}},
		{"root marked, upper levels linked", "superfluous", func(l *SkipList[int, int], n *SLNode[int, int]) {
			prev, _ := l.searchToLevel(nil, n.key, 1, true)
			l.deleteNode(nil, prev, n, 1)
		}},
		{"linked above its height", "tower of height 2", func(l *SkipList[int, int], n *SLNode[int, int]) {
			n.height = 2
		}},
		{"nonzero cell above the height", "above the tower's height", func(l *SkipList[int, int], n *SLNode[int, int]) {
			tall := allocTower[int, int](5) // a bucket of 8: three spare cells
			tall.key = 1000
			tall.spare()[2].backlink.Store(n)
			prev, next := l.searchToLevel(nil, 1000, 1, false)
			tall.succ.store(clean(next))
			prev.succ.store(clean(tall))
		}},
		{"short sentinel", "sentinel towers have heights", func(l *SkipList[int, int], n *SLNode[int, int]) {
			l.tail.height--
		}},
	} {
		l := rigged(allHeight(3))
		for k := 0; k < 8; k++ {
			l.Insert(nil, k, k)
		}
		if err := l.CheckStructure(); err != nil {
			t.Fatalf("%s: before the damage: %v", tc.name, err)
		}
		tc.damage(l, l.Search(nil, 4))
		if err := l.CheckStructure(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: CheckStructure = %v, want an error mentioning %q", tc.name, err, tc.want)
		}
	}
}
