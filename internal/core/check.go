package core

import (
	"fmt"
)

// checkOrder verifies strict ordering between two adjacent nodes given
// their kinds, using keyCmp only when both are interior.
func checkOrder(a, b nodeKind, keyCmp func() int) error {
	switch {
	case a == kindTail:
		return fmt.Errorf("tail has a successor")
	case b == kindHead:
		return fmt.Errorf("head appears as a successor")
	case a == kindHead || b == kindTail:
		return nil
	case keyCmp() >= 0:
		return fmt.Errorf("keys not strictly increasing")
	default:
		return nil
	}
}

// CheckStructure validates the skip list's structure. It must be called in
// a quiescent state (no concurrent operations); stress tests call it
// between phases. Every level must satisfy the paper's invariants INV 1-5
// (Section 3.3):
//
//	INV 1: keys are strictly sorted along right pointers.
//	INV 2: regular and logically deleted nodes form a single linked list
//	       from head to tail.
//	INV 3: the predecessor of a logically deleted node is flagged and
//	       unmarked, and the deleted node's successor is unmarked.
//	INV 4: a logically deleted node's backlink points to its predecessor.
//	INV 5: no node is both marked and flagged.
//
// In a quiescent state no node reachable from the head is marked or
// flagged at all (every deletion has fully completed), which the checker
// enforces, and that makes INV 3 and 4 hold vacuously. Towers must be
// vertically consistent - Figure 6, restated on heights: a tower linked on
// level v has height >= v and is linked on every level below; no linked
// tower's level-1 word is marked (none is superfluous); the cells a tower
// owns above its height hold the zero word; and both sentinels span
// maxLevel.
func (l *SkipList[K, V]) CheckStructure() error {
	defer l.opPin(nil).Unpin()
	if int(l.head.height) != l.maxLevel || int(l.tail.height) != l.maxLevel {
		return fmt.Errorf("sentinel towers have heights %d and %d, want %d", l.head.height, l.tail.height, l.maxLevel)
	}
	if !l.head.spareZero() || !l.tail.spareZero() {
		return fmt.Errorf("a sentinel tower has a nonzero cell above its height")
	}
	var below map[K]*SLNode[K, V] // the towers linked one level down
	for lv := 1; lv <= l.maxLevel; lv++ {
		linked := make(map[K]*SLNode[K, V])
		prev := l.head
		for seen := 0; ; seen++ {
			s := prev.cell(lv).loadSucc()
			if s.marked() && s.flagged() {
				return fmt.Errorf("level %d: INV5 violated", lv)
			}
			if s.marked() || s.flagged() {
				return fmt.Errorf("level %d: quiescence violated: mark=%t flag=%t", lv, s.marked(), s.flagged())
			}
			next := s.right()
			if next == nil {
				if prev != l.tail {
					return fmt.Errorf("level %d: nil right pointer before tail", lv)
				}
				break
			}
			if err := checkOrder(prev.kind, next.kind, func() int { return l.compare(prev.key, next.key) }); err != nil {
				return fmt.Errorf("level %d: INV1 violated: %w", lv, err)
			}
			if int(next.height) < lv {
				return fmt.Errorf("level %d: a tower of height %d is linked here", lv, next.height)
			}
			if next.kind == kindInterior {
				switch k := next.key; {
				case next.marked():
					return fmt.Errorf("level %d: key %v is superfluous in a quiescent state", lv, k)
				case lv > 1 && below[k] != next:
					return fmt.Errorf("level %d: key %v is linked here but its tower is not on level %d", lv, k, lv-1)
				case lv == 1 && !next.spareZero():
					return fmt.Errorf("key %v: a cell above the tower's height %d is not zero", k, next.height)
				}
				linked[next.key] = next
			}
			prev = next
			if seen > 1<<30 {
				return fmt.Errorf("level %d: does not terminate (cycle?)", lv)
			}
		}
		below = linked
	}
	return nil
}

// spareZero reports whether every cell the tower owns above its height
// holds the zero word and no backlink.
func (n *SLNode[K, V]) spareZero() bool {
	sp := n.spare()
	for i := range sp {
		if sp[i].loadSucc() != (word[SLNode[K, V]]{}) || sp[i].backlink.Load() != nil {
			return false
		}
	}
	return true
}

// ascend calls fn for each key/value in ascending order by walking level 1,
// skipping marked roots. Weakly consistent under concurrency.
func (l *SkipList[K, V]) ascend(fn func(k K, v V) bool) {
	n := l.head.right()
	for n.kind != kindTail {
		if !n.marked() {
			if !fn(n.key, n.val) {
				return
			}
		}
		n = n.right()
	}
}

// ascendRange calls fn for keys in [from, to) in ascending order. It uses
// the skip-list search to locate the start, then walks level 1.
func (l *SkipList[K, V]) ascendRange(p *Proc, from, to K, fn func(k K, v V) bool) {
	_, n := l.searchToLevel(p, from, 1, true) // pred.key < from <= n.key
	for n.kind != kindTail && l.compare(n.key, to) < 0 {
		if !n.marked() {
			if !fn(n.key, n.val) {
				return
			}
		}
		n = n.right()
	}
}

// Heights returns the histogram of tower heights among live (non-marked
// root) towers: Heights()[h] is the number of towers whose topmost present
// node is on level h+1. Used by experiment E6. Call in a quiescent state
// for exact results.
func (l *SkipList[K, V]) Heights() []int {
	defer l.opPin(nil).Unpin()
	top := make(map[K]int)
	for lv := 1; lv <= l.maxLevel; lv++ {
		for n := l.head.cell(lv).right(); n.kind != kindTail; n = n.cell(lv).right() {
			if !n.marked() {
				top[n.key] = lv
			}
		}
	}
	hist := make([]int, l.maxLevel)
	for _, h := range top {
		hist[h-1]++
	}
	return hist
}
