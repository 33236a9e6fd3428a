package core

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"sync"
	"testing"

	"repro/internal/heights"
)

// rigged returns an empty skip list whose towers get height(k) levels
// (capped at maxLevel-1) in place of the seeded hash of k: a shape fixed
// by hand.
func rigged(height func(int) int, opts ...SkipListOption) *SkipList[int, int] {
	l := NewSkipList[int, int](opts...)
	l.SetHeights(height)
	return l
}

// allHeight is the height function that gives every tower h levels.
func allHeight(h int) func(int) int { return func(int) int { return h } }

func TestSkipListEmpty(t *testing.T) {
	l := NewSkipList[int, string](WithSeed(1))
	if n := l.Search(nil, 1); n != nil {
		t.Fatalf("Search on empty = %v, want nil", n)
	}
	if _, ok := l.Delete(nil, 1); ok {
		t.Fatal("Delete on empty succeeded")
	}
	if got := l.Len(); got != 0 {
		t.Fatalf("Len = %d, want 0", got)
	}
	if err := l.CheckStructure(); err != nil {
		t.Fatal(err)
	}
}

func TestSkipListInsertSearchDelete(t *testing.T) {
	l := NewSkipList[int, int](WithSeed(2))
	const n = 1000
	for i := 0; i < n; i++ {
		if _, ok := l.Insert(nil, i, i*3); !ok {
			t.Fatalf("Insert(%d) failed", i)
		}
	}
	if got := l.Len(); got != n {
		t.Fatalf("Len = %d, want %d", got, n)
	}
	if err := l.CheckStructure(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		v, ok := l.Get(nil, i)
		if !ok || v != i*3 {
			t.Fatalf("Get(%d) = %d, %t", i, v, ok)
		}
	}
	for i := 0; i < n; i += 3 {
		if _, ok := l.Delete(nil, i); !ok {
			t.Fatalf("Delete(%d) failed", i)
		}
	}
	if err := l.CheckStructure(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		_, ok := l.Get(nil, i)
		if want := i%3 != 0; ok != want {
			t.Fatalf("Get(%d) present=%t want %t", i, ok, want)
		}
	}
}

func TestSkipListDuplicate(t *testing.T) {
	l := NewSkipList[string, int](WithSeed(3))
	r1, ok := l.Insert(nil, "a", 1)
	if !ok {
		t.Fatal("first insert failed")
	}
	r2, ok := l.Insert(nil, "a", 2)
	if ok || r2 != r1 {
		t.Fatalf("duplicate insert: ok=%t same=%t", ok, r2 == r1)
	}
	if v, _ := l.Get(nil, "a"); v != 1 {
		t.Fatalf("value clobbered: %d", v)
	}
}

func TestSkipListReinsertAfterDelete(t *testing.T) {
	l := NewSkipList[int, int](WithSeed(4))
	for round := 0; round < 50; round++ {
		if _, ok := l.Insert(nil, 7, round); !ok {
			t.Fatalf("round %d: insert failed", round)
		}
		if v, ok := l.Get(nil, 7); !ok || v != round {
			t.Fatalf("round %d: get = %d, %t", round, v, ok)
		}
		if _, ok := l.Delete(nil, 7); !ok {
			t.Fatalf("round %d: delete failed", round)
		}
		if _, ok := l.Get(nil, 7); ok {
			t.Fatalf("round %d: key survived delete", round)
		}
	}
	if err := l.CheckStructure(); err != nil {
		t.Fatal(err)
	}
}

func TestSkipListRandomOrderLargeKeys(t *testing.T) {
	l := NewSkipList[int, int](WithSeed(5))
	rng := rand.New(rand.NewPCG(9, 9))
	keys := map[int]bool{}
	for i := 0; i < 2000; i++ {
		k := int(rng.Uint64N(1 << 40))
		_, ok := l.Insert(nil, k, k)
		if ok == keys[k] {
			t.Fatalf("Insert(%d) ok=%t but model has=%t", k, ok, keys[k])
		}
		keys[k] = true
	}
	var got []int
	l.Ascend(func(k, _ int) bool { got = append(got, k); return true })
	if len(got) != len(keys) || !sort.IntsAreSorted(got) {
		t.Fatalf("ascend: %d keys (want %d), sorted=%t", len(got), len(keys), sort.IntsAreSorted(got))
	}
	if err := l.CheckStructure(); err != nil {
		t.Fatal(err)
	}
}

func TestSkipListAscendRange(t *testing.T) {
	l := NewSkipList[int, int](WithSeed(6))
	for i := 0; i < 100; i += 2 { // even keys 0..98
		l.Insert(nil, i, i)
	}
	var got []int
	l.AscendRange(nil, 10, 21, func(k, _ int) bool { got = append(got, k); return true })
	want := []int{10, 12, 14, 16, 18, 20}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("AscendRange(10,21) = %v, want %v", got, want)
	}
	// from key absent, to beyond the end
	got = got[:0]
	l.AscendRange(nil, 95, 1000, func(k, _ int) bool { got = append(got, k); return true })
	if fmt.Sprint(got) != fmt.Sprint([]int{96, 98}) {
		t.Fatalf("AscendRange(95,1000) = %v", got)
	}
	// empty range
	got = got[:0]
	l.AscendRange(nil, 50, 50, func(k, _ int) bool { got = append(got, k); return true })
	if len(got) != 0 {
		t.Fatalf("AscendRange(50,50) = %v, want empty", got)
	}
}

func TestSkipListMaxLevelClamping(t *testing.T) {
	l := NewSkipList[int, int](WithMaxLevel(1), WithSeed(7))
	if l.MaxLevel() != 2 {
		t.Fatalf("MaxLevel = %d, want clamp to 2", l.MaxLevel())
	}
	for i := 0; i < 100; i++ {
		l.Insert(nil, i, i) // all towers capped at height 1
	}
	if err := l.CheckStructure(); err != nil {
		t.Fatal(err)
	}
	if got := l.Len(); got != 100 {
		t.Fatalf("Len = %d", got)
	}
}

func TestSkipListConcurrentDisjoint(t *testing.T) {
	l := NewSkipList[int, int](WithSeed(8))
	const workers, per = 8, 300
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := &Proc{ID: w}
			for i := 0; i < per; i++ {
				k := w*per + i
				if _, ok := l.Insert(p, k, k); !ok {
					t.Errorf("Insert(%d) failed", k)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if got := l.Len(); got != workers*per {
		t.Fatalf("Len = %d, want %d", got, workers*per)
	}
	if err := l.CheckStructure(); err != nil {
		t.Fatal(err)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := &Proc{ID: w}
			for i := 0; i < per; i++ {
				k := w*per + i
				if _, ok := l.Delete(p, k); !ok {
					t.Errorf("Delete(%d) failed", k)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if got := l.Len(); got != 0 {
		t.Fatalf("Len = %d, want 0", got)
	}
	if err := l.CheckStructure(); err != nil {
		t.Fatal(err)
	}
}

func TestSkipListConcurrentHotKeys(t *testing.T) {
	l := NewSkipList[int, int](WithSeed(9))
	const workers = 8
	const ops = 2000
	const keyRange = 32
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(w), 17))
			p := &Proc{ID: w}
			for i := 0; i < ops; i++ {
				k := int(rng.Uint64N(keyRange))
				switch rng.Uint64N(3) {
				case 0:
					l.Insert(p, k, k)
				case 1:
					l.Delete(p, k)
				default:
					l.Search(p, k)
				}
			}
		}(w)
	}
	wg.Wait()
	if err := l.CheckStructure(); err != nil {
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
		t.Fatalf("Len = %d but traversal found %d", got, count)
	}
}

func TestSkipListConcurrentDeleteContention(t *testing.T) {
	const workers = 8
	const keys = 150
	for round := 0; round < 5; round++ {
		l := NewSkipList[int, int](WithSeed(uint64(round + 10)))
		for k := 0; k < keys; k++ {
			l.Insert(nil, k, k)
		}
		wins := make([]int, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				p := &Proc{ID: w}
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
		if got := l.Len(); got != 0 {
			t.Fatalf("round %d: Len = %d", round, got)
		}
		if err := l.CheckStructure(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
}

// TestSkipListInsertDeleteRace intermixes insertions and deletions of the
// same keys to exercise the superfluous-tower path: deletions of roots
// whose towers are still being built.
func TestSkipListInsertDeleteRace(t *testing.T) {
	l := NewSkipList[int, int](WithSeed(20))
	const workers = 8
	const keys = 16
	const rounds = 1500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := &Proc{ID: w}
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

func TestSkipListHeightsHistogram(t *testing.T) {
	l := NewSkipList[int, int](WithSeed(30))
	const n = 4000
	for i := 0; i < n; i++ {
		l.Insert(nil, i, i)
	}
	hist := l.Heights()
	total := 0
	for _, c := range hist {
		total += c
	}
	if total != n {
		t.Fatalf("histogram mass = %d, want %d", total, n)
	}
	// Fan-out 4: roughly three towers in four have height 1. Allow wide
	// tolerance; this is a sanity check, TestHeightsGeometric and E6 do
	// the real measurement.
	if hist[0] < 7*n/12 || hist[0] > 11*n/12 {
		t.Fatalf("height-1 towers = %d of %d, expected near %d", hist[0], n, 3*n/4)
	}
	for h := 1; h < len(hist)-1; h++ {
		if hist[h] > 0 && hist[h-1] == 0 {
			t.Fatalf("height histogram has a gap below level %d", h+1)
		}
	}
}

func TestSkipListTowerHeightDistribution(t *testing.T) {
	l := NewSkipList[int, int](WithSeed(31))
	counts := map[int]int{}
	const draws = 200000
	for k := 0; k < draws; k++ {
		counts[l.towerHeight(k)]++
	}
	// P(h=1) = 3/4, P(h=2) = 3/16, ...: fan-out 4.
	for h := 1; h <= 4; h++ {
		want := int(draws * heights.Mass(h))
		got := counts[h]
		if got < want*9/10 || got > want*11/10 {
			t.Fatalf("height %d drawn %d times, want about %d", h, got, want)
		}
	}
	for h := range counts {
		if h < 1 || h > l.maxLevel-1 {
			t.Fatalf("height %d outside [1, %d]", h, l.maxLevel-1)
		}
	}
}

func TestSkipListStatsThreeCASDeletion(t *testing.T) {
	l := rigged(allHeight(1))
	for i := 0; i < 10; i++ {
		l.Insert(nil, i, i)
	}
	st := &OpStats{}
	p := &Proc{Stats: st}
	l.Delete(p, 5)
	// Height-1 tower, no contention: flag + mark + physical delete.
	if st.CASSuccesses != 3 {
		t.Fatalf("CASSuccesses = %d, want 3", st.CASSuccesses)
	}
}

func ExampleSkipList() {
	l := NewSkipList[string, int]()
	l.Insert(nil, "b", 2)
	l.Insert(nil, "a", 1)
	l.Insert(nil, "c", 3)
	l.Delete(nil, "b")
	l.Ascend(func(k string, v int) bool {
		fmt.Println(k, v)
		return true
	})
	// Output:
	// a 1
	// c 3
}
