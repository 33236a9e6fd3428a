package history

import (
	"math/rand/v2"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/harris"
	"repro/internal/noflag"
	"repro/internal/sundell"
	"repro/internal/valois"
)

// runHistoryStress drives a concurrent workload through op callbacks and
// checks the recorded history for linearizability. It reports whether the
// history could be checked: a history too dense for the checker is
// inconclusive, not a failure.
func runHistoryStress(t *testing.T, name string,
	insert func(k int) bool, remove func(k int) bool, search func(k int) bool) bool {
	t.Helper()
	const workers, ops, keyRange = 8, 350, 16
	rec := NewRecorder(workers, ops)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := rec.Thread(w)
			rng := rand.New(rand.NewPCG(uint64(w), 123))
			for i := 0; i < ops; i++ {
				k := int(rng.Uint64N(keyRange))
				switch rng.Uint64N(3) {
				case 0:
					o := th.Begin(KindInsert, k)
					th.End(o, insert(k))
				case 1:
					o := th.Begin(KindDelete, k)
					th.End(o, remove(k))
				default:
					o := th.Begin(KindSearch, k)
					th.End(o, search(k))
				}
			}
		}(w)
	}
	wg.Wait()
	if err := Check(rec.Ops()); err != nil {
		if _, dense := err.(*ErrTooDense); dense {
			t.Logf("%s: history too dense to check: %v", name, err)
			return false
		}
		t.Fatalf("%s produced a non-linearizable history: %v", name, err)
	}
	return true
}

// historyOps is one fresh structure's operations, as runHistoryStress
// drives them.
type historyOps struct{ insert, remove, search func(k int) bool }

// checkRounds runs runHistoryStress on rounds fresh structures from
// newOps. A round too dense for the checker verifies nothing, so it is
// run again on a fresh structure, up to rounds extra runs in all; the
// test skips only if no round could be checked.
func checkRounds(t *testing.T, name string, rounds int, newOps func() historyOps) {
	t.Helper()
	checked, dense := 0, 0
	for checked < rounds && dense <= rounds {
		o := newOps()
		if runHistoryStress(t, name, o.insert, o.remove, o.search) {
			checked++
		} else {
			dense++
		}
	}
	if checked == 0 {
		t.Skipf("%s: all %d rounds too dense to check", name, dense)
	}
}

func TestSkipListLinearizable(t *testing.T) {
	checkRounds(t, "core.SkipList", 5, func() historyOps {
		l := core.NewSkipList[int, int]()
		return historyOps{
			insert: func(k int) bool { _, ok := l.Insert(nil, k, k); return ok },
			remove: func(k int) bool { _, ok := l.Delete(nil, k); return ok },
			search: func(k int) bool { return l.Search(nil, k) != nil },
		}
	})
}

func TestHarrisListLinearizable(t *testing.T) {
	checkRounds(t, "harris.List", 3, func() historyOps {
		l := harris.NewList[int, int]()
		return historyOps{
			insert: func(k int) bool { _, ok := l.Insert(nil, k, k); return ok },
			remove: func(k int) bool { _, ok := l.Delete(nil, k); return ok },
			search: func(k int) bool { return l.Search(nil, k) != nil },
		}
	})
}

func TestHarrisSkipListLinearizable(t *testing.T) {
	checkRounds(t, "harris.SkipList", 3, func() historyOps {
		l := harris.NewSkipList[int, int](0, nil)
		return historyOps{
			insert: func(k int) bool { return l.Insert(nil, k, k) },
			remove: func(k int) bool { return l.Delete(nil, k) },
			search: func(k int) bool { return l.Contains(nil, k) },
		}
	})
}

func TestValoisListLinearizable(t *testing.T) {
	checkRounds(t, "valois.List", 3, func() historyOps {
		l := valois.NewList[int, int]()
		return historyOps{
			insert: func(k int) bool { return l.Insert(nil, k, k) },
			remove: func(k int) bool { return l.Delete(nil, k) },
			search: func(k int) bool { return l.Contains(nil, k) },
		}
	})
}

func TestNoflagListLinearizable(t *testing.T) {
	checkRounds(t, "noflag.List", 3, func() historyOps {
		l := noflag.NewList[int, int]()
		return historyOps{
			insert: func(k int) bool { _, ok := l.Insert(nil, k, k); return ok },
			remove: func(k int) bool { _, ok := l.Delete(nil, k); return ok },
			search: func(k int) bool { return l.Search(nil, k) != nil },
		}
	})
}

func TestSundellSkipListLinearizable(t *testing.T) {
	checkRounds(t, "sundell.SkipList", 3, func() historyOps {
		l := sundell.New[int, int](0, nil)
		return historyOps{
			insert: func(k int) bool { return l.Insert(nil, k, k) },
			remove: func(k int) bool { return l.Delete(nil, k) },
			search: func(k int) bool { return l.Contains(nil, k) },
		}
	})
}
