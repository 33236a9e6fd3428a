package sundell

import (
	"math/rand/v2"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/heights"
	"repro/internal/instrument"
)

func TestSundellSequential(t *testing.T) {
	l := New[int, int](0, 1)
	const n = 800
	for i := 0; i < n; i++ {
		if !l.Insert(nil, i, i*2) {
			t.Fatalf("Insert(%d) failed", i)
		}
	}
	if l.Insert(nil, 5, 0) {
		t.Fatal("duplicate insert succeeded")
	}
	if got := l.Len(); got != n {
		t.Fatalf("Len = %d", got)
	}
	for i := 0; i < n; i++ {
		v, ok := l.Get(nil, i)
		if !ok || v != i*2 {
			t.Fatalf("Get(%d) = %d, %t", i, v, ok)
		}
	}
	for i := 0; i < n; i += 3 {
		if !l.Delete(nil, i) {
			t.Fatalf("Delete(%d) failed", i)
		}
	}
	for i := 0; i < n; i++ {
		_, ok := l.Get(nil, i)
		if want := i%3 != 0; ok != want {
			t.Fatalf("Get(%d) present=%t want %t", i, ok, want)
		}
	}
	var got []int
	l.Ascend(func(k, _ int) bool { got = append(got, k); return true })
	if !sort.IntsAreSorted(got) {
		t.Fatal("not sorted")
	}
}

func TestSundellReinsert(t *testing.T) {
	l := New[int, int](0, 2)
	for round := 0; round < 40; round++ {
		if !l.Insert(nil, 9, round) {
			t.Fatalf("round %d: insert failed", round)
		}
		if v, ok := l.Get(nil, 9); !ok || v != round {
			t.Fatalf("round %d: get = %d,%t", round, v, ok)
		}
		if !l.Delete(nil, 9) {
			t.Fatalf("round %d: delete failed", round)
		}
		if _, ok := l.Get(nil, 9); ok {
			t.Fatalf("round %d: key survived", round)
		}
	}
}

func TestSundellDeleteAbsent(t *testing.T) {
	l := New[int, int](0, 3)
	if l.Delete(nil, 1) {
		t.Fatal("deleted from empty")
	}
	l.Insert(nil, 1, 1)
	if l.Delete(nil, 2) {
		t.Fatal("deleted absent key")
	}
	if !l.Delete(nil, 1) || l.Delete(nil, 1) {
		t.Fatal("delete/double-delete wrong")
	}
}

func TestSundellConcurrentStress(t *testing.T) {
	l := New[int, int](0, 4)
	const workers, ops, keyRange = 8, 2000, 48
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(w), 15))
			p := &instrument.Proc{ID: w}
			for i := 0; i < ops; i++ {
				k := int(rng.Uint64N(keyRange))
				switch rng.Uint64N(3) {
				case 0:
					l.Insert(p, k, k)
				case 1:
					l.Delete(p, k)
				default:
					l.Contains(p, k)
				}
			}
		}(w)
	}
	wg.Wait()
	seen := map[int]bool{}
	count := 0
	l.Ascend(func(k, _ int) bool {
		if seen[k] {
			t.Errorf("duplicate key %d", k)
		}
		seen[k] = true
		count++
		return true
	})
	if got := l.Len(); got != count {
		t.Fatalf("Len = %d, traversal = %d", got, count)
	}
}

func TestSundellAccounting(t *testing.T) {
	for round := 0; round < 8; round++ {
		l := New[int, int](0, uint64(round+10))
		const workers, ops, keyRange = 8, 1200, 32
		var insWins, delWins atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewPCG(uint64(w), uint64(round)))
				for i := 0; i < ops; i++ {
					k := int(rng.Uint64N(keyRange))
					if rng.Uint64N(2) == 0 {
						if l.Insert(nil, k, k) {
							insWins.Add(1)
						}
					} else {
						if l.Delete(nil, k) {
							delWins.Add(1)
						}
					}
				}
			}(w)
		}
		wg.Wait()
		count := 0
		l.Ascend(func(_, _ int) bool { count++; return true })
		if net := int(insWins.Load() - delWins.Load()); net != count || l.Len() != count {
			t.Fatalf("round %d: Len=%d traversal=%d net=%d", round, l.Len(), count, net)
		}
	}
}

func TestSundellDeleteContention(t *testing.T) {
	const workers, keys = 8, 100
	for round := 0; round < 5; round++ {
		l := New[int, int](0, uint64(round+20))
		for k := 0; k < keys; k++ {
			l.Insert(nil, k, k)
		}
		var wins [workers]int
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				p := &instrument.Proc{ID: w}
				for k := 0; k < keys; k++ {
					if l.Delete(p, k) {
						wins[w]++
					}
				}
			}(w)
		}
		wg.Wait()
		total := 0
		for _, n := range wins {
			total += n
		}
		if total != keys {
			t.Fatalf("round %d: %d wins for %d keys", round, total, keys)
		}
		if got := l.Len(); got != 0 {
			t.Fatalf("round %d: Len = %d", round, got)
		}
	}
}

func TestSundellTallTowerChurn(t *testing.T) {
	l := New[int, int](8, heights.DefaultSeed)
	const workers, keys, rounds = 8, 16, 1200
	// The towers are all height 7: tall[i] is the i-th key the seed
	// hashes to the cap.
	var tall []int
	for k := 0; len(tall) < keys; k++ {
		if heights.Of(heights.Key(heights.DefaultSeed, k), 8) == 7 {
			tall = append(tall, k)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := &instrument.Proc{ID: w}
			for i := 0; i < rounds; i++ {
				k := tall[(i+w)%keys]
				if w%2 == 0 {
					l.Insert(p, k, k)
				} else {
					l.Delete(p, k)
				}
			}
		}(w)
	}
	wg.Wait()
	count := 0
	l.Ascend(func(_, _ int) bool { count++; return true })
	if l.Len() != count {
		t.Fatalf("Len = %d, traversal = %d", l.Len(), count)
	}
}
