package core

import (
	"sync"
	"testing"
)

// TestIncompleteTowersBoundedByContention validates the Section 4 claim
// that "a non-deleted tower can be incomplete only if its insertion or its
// deletion is in progress, so the number of incomplete towers at any time
// is bounded by the point contention".
//
// All towers are forced to height 4; c inserters are parked mid-build
// (after their root is linked, before their level-2 C&S). At that instant
// exactly the c in-flight towers may be incomplete: every other live tower
// must have reached its full height.
func TestIncompleteTowersBoundedByContention(t *testing.T) {
	const fullHeight = 4
	l := rigged(allHeight(fullHeight))
	const settled = 100
	for k := 0; k < settled; k++ {
		l.Insert(nil, k, k)
	}

	const c = 5
	gates := make([]*gate, c)
	var wg sync.WaitGroup
	for i := 0; i < c; i++ {
		// Park each inserter at its second insertion C&S (root done,
		// level 2 pending) using a counting hook.
		g := newGate(PtBeforeInsertCAS)
		gates[i] = g
		occurrences := 0
		hook := HookFunc(func(p Point, pid int) {
			if p != PtBeforeInsertCAS {
				return
			}
			occurrences++
			if occurrences >= 2 {
				g.At(p, pid)
			}
		})
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			l.Insert(&Proc{ID: i, Hooks: hook}, 1000+i, i)
		}(i)
		<-g.arrived
	}

	// Quiescent instant: c towers are mid-build. Count incomplete live
	// towers (height < fullHeight).
	incomplete := 0
	for h1, count := range l.Heights() {
		if h1+1 < fullHeight {
			incomplete += count
		}
	}
	if incomplete > c {
		t.Fatalf("%d incomplete towers with point contention %d", incomplete, c)
	}
	if incomplete == 0 {
		t.Fatal("setup failed: no tower is mid-build")
	}

	for _, g := range gates {
		close(g.release)
	}
	wg.Wait()
	// After the builders finish, every live tower is full again.
	for h1, count := range l.Heights() {
		if h1+1 < fullHeight && count != 0 {
			t.Fatalf("%d towers stuck at height %d after quiescence", count, h1+1)
		}
	}
	if err := l.CheckStructure(); err != nil {
		t.Fatal(err)
	}
}
