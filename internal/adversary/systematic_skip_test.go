package adversary

import (
	"fmt"
	"testing"

	"repro/internal/core"
)

// TestSystematicSkipListInterleavings is the skip-list counterpart of
// TestSystematicTwoOpInterleavings: every pause-point pairing of two
// racing operations on tall towers, each schedule validated structurally.
func TestSystematicSkipListInterleavings(t *testing.T) {
	tall := allHeight(4)
	type skipScenario struct {
		name  string
		setup func() (*core.SkipList[int, int], func(*core.Proc) bool, func(*core.Proc) bool, func(*core.SkipList[int, int]) error)
	}
	scenarios := []skipScenario{
		{
			name: "insert-vs-delete-neighbour",
			setup: func() (*core.SkipList[int, int], func(*core.Proc) bool, func(*core.Proc) bool, func(*core.SkipList[int, int]) error) {
				l := rigged(tall)
				for k := 0; k < 50; k += 10 {
					l.Insert(nil, k, k)
				}
				ins := func(p *core.Proc) bool { _, ok := l.Insert(p, 25, 25); return ok }
				del := func(p *core.Proc) bool { _, ok := l.Delete(p, 20); return ok }
				check := func(l *core.SkipList[int, int]) error {
					if _, ok := l.Get(nil, 25); !ok {
						return fmt.Errorf("inserted key 25 missing")
					}
					if _, ok := l.Get(nil, 20); ok {
						return fmt.Errorf("deleted key 20 present")
					}
					return l.CheckStructure()
				}
				return l, ins, del, check
			},
		},
		{
			name: "delete-vs-reinsert-same-key",
			setup: func() (*core.SkipList[int, int], func(*core.Proc) bool, func(*core.Proc) bool, func(*core.SkipList[int, int]) error) {
				l := rigged(tall)
				for k := 0; k < 50; k += 10 {
					l.Insert(nil, k, k)
				}
				del := func(p *core.Proc) bool { _, ok := l.Delete(p, 20); return ok }
				ins := func(p *core.Proc) bool { _, ok := l.Insert(p, 20, 99); return ok }
				check := func(l *core.SkipList[int, int]) error {
					// Either order is legal; the structure must be sound
					// and the key present iff the insert linearized last.
					return l.CheckStructure()
				}
				return l, del, ins, check
			},
		},
	}
	for _, sc := range scenarios {
		for _, p1 := range pausePoints {
			for _, p2 := range pausePoints {
				for _, firstRelease := range []int{1, 2} {
					name := fmt.Sprintf("%s/%v-%v-rel%d", sc.name, p1, p2, firstRelease)
					t.Run(name, func(t *testing.T) {
						l, op1, op2, check := sc.setup()
						ctl := NewController()
						ctl.PauseAt(1, p1)
						ctl.PauseAt(2, p2)
						results := make(chan int, 2)
						go func() { op1(&core.Proc{ID: 1, Hooks: ctl.HooksFor()}); results <- 1 }()
						waitParkedOrDone(ctl, 1, p1, results)
						go func() { op2(&core.Proc{ID: 2, Hooks: ctl.HooksFor()}); results <- 2 }()
						waitParkedOrDone(ctl, 2, p2, results)
						ctl.ClearAllPauses()
						if firstRelease == 1 {
							ctl.Release(1)
							ctl.Release(2)
						} else {
							ctl.Release(2)
							ctl.Release(1)
						}
						drain(results)
						if err := check(l); err != nil {
							t.Fatalf("schedule left a bad state: %v", err)
						}
					})
				}
			}
		}
	}
}
