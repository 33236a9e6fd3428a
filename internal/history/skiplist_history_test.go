package history

import (
	"math/rand/v2"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/harris"
	"repro/internal/heights"
	"repro/internal/noflag"
	"repro/internal/sundell"
	"repro/internal/valois"
)

// historyOps is one fresh structure's operations, as runHistoryStress
// drives them.
type historyOps struct{ insert, remove, search func(k int) bool }

// runHistoryStress drives a concurrent workload through rounds fresh
// structures from newOps, a different op stream each round, and fails the
// test unless every recorded history is linearizable.
func runHistoryStress(t *testing.T, name string, rounds int, newOps func() historyOps) {
	t.Helper()
	const workers, ops, keyRange = 8, 350, 16
	for round := 0; round < rounds; round++ {
		d := newOps()
		rec := NewRecorder(workers, ops)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				th := rec.Thread(w)
				rng := rand.New(rand.NewPCG(uint64(w), 123+uint64(round)))
				for i := 0; i < ops; i++ {
					k := int(rng.Uint64N(keyRange))
					switch rng.Uint64N(3) {
					case 0:
						o := th.Begin(KindInsert, k)
						th.End(o, d.insert(k))
					case 1:
						o := th.Begin(KindDelete, k)
						th.End(o, d.remove(k))
					default:
						o := th.Begin(KindSearch, k)
						th.End(o, d.search(k))
					}
				}
			}(w)
		}
		wg.Wait()
		if err := Check(rec.Ops()); err != nil {
			t.Fatalf("%s round %d produced a non-linearizable history: %v", name, round, err)
		}
	}
}

func TestSkipListLinearizable(t *testing.T) {
	runHistoryStress(t, "core.SkipList", 5, func() historyOps {
		l := core.NewSkipList[int, int]()
		return historyOps{
			insert: func(k int) bool { _, ok := l.Insert(nil, k, k); return ok },
			remove: func(k int) bool { _, ok := l.Delete(nil, k); return ok },
			search: func(k int) bool { return l.Search(nil, k) != nil },
		}
	})
}

func TestHarrisListLinearizable(t *testing.T) {
	runHistoryStress(t, "harris.List", 3, func() historyOps {
		l := harris.NewList[int, int]()
		return historyOps{
			insert: func(k int) bool { _, ok := l.Insert(nil, k, k); return ok },
			remove: func(k int) bool { _, ok := l.Delete(nil, k); return ok },
			search: func(k int) bool { return l.Search(nil, k) != nil },
		}
	})
}

func TestHarrisSkipListLinearizable(t *testing.T) {
	runHistoryStress(t, "harris.SkipList", 3, func() historyOps {
		l := harris.NewSkipList[int, int](0, heights.DefaultSeed)
		return historyOps{
			insert: func(k int) bool { return l.Insert(nil, k, k) },
			remove: func(k int) bool { return l.Delete(nil, k) },
			search: func(k int) bool { return l.Contains(nil, k) },
		}
	})
}

func TestValoisListLinearizable(t *testing.T) {
	runHistoryStress(t, "valois.List", 3, func() historyOps {
		l := valois.NewList[int, int]()
		return historyOps{
			insert: func(k int) bool { return l.Insert(nil, k, k) },
			remove: func(k int) bool { return l.Delete(nil, k) },
			search: func(k int) bool { return l.Contains(nil, k) },
		}
	})
}

func TestNoflagListLinearizable(t *testing.T) {
	runHistoryStress(t, "noflag.List", 3, func() historyOps {
		l := noflag.NewList[int, int]()
		return historyOps{
			insert: func(k int) bool { _, ok := l.Insert(nil, k, k); return ok },
			remove: func(k int) bool { _, ok := l.Delete(nil, k); return ok },
			search: func(k int) bool { return l.Search(nil, k) != nil },
		}
	})
}

func TestSundellSkipListLinearizable(t *testing.T) {
	runHistoryStress(t, "sundell.SkipList", 3, func() historyOps {
		l := sundell.New[int, int](0, heights.DefaultSeed)
		return historyOps{
			insert: func(k int) bool { return l.Insert(nil, k, k) },
			remove: func(k int) bool { return l.Delete(nil, k) },
			search: func(k int) bool { return l.Contains(nil, k) },
		}
	})
}
