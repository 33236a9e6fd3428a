package harris

import (
	"math/rand/v2"
	"sort"
	"sync"
	"testing"

	"repro/internal/instrument"
)

func TestHarrisListSequential(t *testing.T) {
	l := NewList[int, int]()
	for i := 0; i < 200; i++ {
		if _, ok := l.Insert(nil, i, i); !ok {
			t.Fatalf("Insert(%d) failed", i)
		}
	}
	if _, ok := l.Insert(nil, 100, 0); ok {
		t.Fatal("duplicate insert succeeded")
	}
	if got := l.Len(); got != 200 {
		t.Fatalf("Len = %d", got)
	}
	for i := 0; i < 200; i += 2 {
		if _, ok := l.Delete(nil, i); !ok {
			t.Fatalf("Delete(%d) failed", i)
		}
	}
	for i := 0; i < 200; i++ {
		_, ok := l.Get(nil, i)
		if want := i%2 == 1; ok != want {
			t.Fatalf("Get(%d) = %t, want %t", i, ok, want)
		}
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestHarrisListDeleteAbsent(t *testing.T) {
	l := NewList[int, int]()
	l.Insert(nil, 1, 1)
	if _, ok := l.Delete(nil, 2); ok {
		t.Fatal("deleted absent key")
	}
	if _, ok := l.Delete(nil, 1); !ok {
		t.Fatal("delete failed")
	}
	if _, ok := l.Delete(nil, 1); ok {
		t.Fatal("double delete succeeded")
	}
}

func TestHarrisListConcurrentStress(t *testing.T) {
	l := NewList[int, int]()
	const workers, ops, keyRange = 8, 3000, 64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(w), 5))
			p := &instrument.Proc{ID: w}
			for i := 0; i < ops; i++ {
				k := int(rng.Uint64N(keyRange))
				switch rng.Uint64N(3) {
				case 0:
					l.Insert(p, k, k)
				case 1:
					l.Delete(p, k)
				default:
					l.Get(p, k)
				}
			}
		}(w)
	}
	wg.Wait()
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
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

func TestHarrisListDeleteContention(t *testing.T) {
	const workers, keys = 8, 150
	for round := 0; round < 5; round++ {
		l := NewList[int, int]()
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
					if _, ok := l.Delete(p, k); ok {
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
		if err := l.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestHarrisListRestartCounting(t *testing.T) {
	l := NewList[int, int]()
	st := &instrument.OpStats{}
	p := &instrument.Proc{Stats: st}
	for i := 0; i < 20; i++ {
		l.Insert(p, i, i)
	}
	if st.Restarts != 0 {
		t.Fatalf("uncontended inserts restarted %d times", st.Restarts)
	}
	if st.CASSuccesses != 20 {
		t.Fatalf("CASSuccesses = %d, want 20", st.CASSuccesses)
	}
}

func TestHarrisSkipListSequential(t *testing.T) {
	l := NewSkipList[int, int](0, 1)
	const n = 1000
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
	if err := l.CheckStructure(); err != nil {
		t.Fatal(err)
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
	if err := l.CheckStructure(); err != nil {
		t.Fatal(err)
	}
	var got []int
	l.Ascend(func(k, _ int) bool { got = append(got, k); return true })
	if !sort.IntsAreSorted(got) {
		t.Fatal("not sorted")
	}
	want := n - (n+2)/3
	if len(got) != want {
		t.Fatalf("traversal found %d keys, want %d", len(got), want)
	}
}

func TestHarrisSkipListConcurrentStress(t *testing.T) {
	l := NewSkipList[int, int](0, 2)
	const workers, ops, keyRange = 8, 2000, 48
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(w), 11))
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
	if err := l.CheckStructure(); err != nil {
		t.Fatal(err)
	}
	count := 0
	l.Ascend(func(_, _ int) bool { count++; return true })
	if got := l.Len(); got != count {
		t.Fatalf("Len = %d, traversal = %d", got, count)
	}
}

func TestHarrisSkipListDeleteContention(t *testing.T) {
	const workers, keys = 8, 100
	for round := 0; round < 5; round++ {
		l := NewSkipList[int, int](0, uint64(round+3))
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
		if err := l.CheckStructure(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestHarrisSkipListInsertDeleteRace(t *testing.T) {
	l := NewSkipList[int, int](0, 7)
	const workers, keys, rounds = 8, 16, 1200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := &instrument.Proc{ID: w}
			for i := 0; i < rounds; i++ {
				k := (i + w) % keys
				if w%2 == 0 {
					l.Insert(p, k, k)
				} else {
					l.Delete(p, k)
				}
			}
		}(w)
	}
	wg.Wait()
	if err := l.CheckStructure(); err != nil {
		t.Fatal(err)
	}
}
