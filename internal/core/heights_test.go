package core

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/heights"
)

// TestHeightsHistoryIndependent builds one key set in ascending,
// descending and shuffled order, and once more through a history of
// deletes and re-inserts, and asserts what a height drawn from the key
// promises: the same towers key by key, the same Heights() histogram, and
// the same essential steps for one seeded single-threaded stream of Gets.
func TestHeightsHistoryIndependent(t *testing.T) {
	const n = 1 << 12
	keys := make([]int, n) // 0, 3, 6, ...: a Get of 3k+1 is a miss
	for i := range keys {
		keys[i] = 3 * i
	}
	descending := slices.Clone(keys)
	slices.Reverse(descending)
	shuffled := slices.Clone(keys)
	rand.New(rand.NewPCG(5, 6)).Shuffle(n, func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })

	build := func(order []int) *SkipList[int, int] {
		l := NewSkipList[int, int]()
		for _, k := range order {
			l.Insert(nil, k, k)
		}
		return l
	}
	churned := func() *SkipList[int, int] {
		l := build(shuffled)
		for _, k := range shuffled[:n/2] {
			l.Insert(nil, k+1, k+1) // a key outside the set, deleted below
			l.Delete(nil, k)
		}
		for _, k := range shuffled[:n/2] {
			l.Delete(nil, k+1)
			l.Insert(nil, k, k)
		}
		return l
	}
	type shape struct {
		towers []int // the height of keys[i]'s tower
		hist   []int
		steps  uint64
	}
	measure := func(l *SkipList[int, int]) shape {
		if err := l.CheckStructure(); err != nil {
			t.Fatal(err)
		}
		s := shape{hist: l.Heights()}
		for _, k := range keys {
			s.towers = append(s.towers, l.Search(nil, k).Height())
		}
		var st OpStats
		p := &Proc{Stats: &st}
		stream := rand.New(rand.NewPCG(17, 2004))
		for i := 0; i < 1<<14; i++ {
			l.Get(p, stream.IntN(3*n))
		}
		s.steps = st.EssentialSteps()
		return s
	}
	want := measure(build(keys))
	for name, l := range map[string]*SkipList[int, int]{
		"descending": build(descending),
		"shuffled":   build(shuffled),
		"churned":    churned(),
	} {
		got := measure(l)
		if !slices.Equal(got.towers, want.towers) {
			i := slices.IndexFunc(keys, func(k int) bool { return got.towers[k/3] != want.towers[k/3] })
			t.Errorf("%s: key %d's tower is %d levels high, ascending built %d", name, keys[i], got.towers[i], want.towers[i])
		}
		if !slices.Equal(got.hist, want.hist) || got.steps != want.steps {
			t.Errorf("%s: heights %v and %d Get steps, ascending gave %v and %d", name, got.hist, got.steps, want.hist, want.steps)
		}
	}
}

// TestHeightsGeometric is a chi-squared test of the towers of 2^16 keys
// against geometric(3/4), P(height = h) = (3/4) 4^-(h-1): sequential ints,
// ints 1024 apart - where a hash that keeps the key's low bits gives every
// tower height 1 - and strings.
func TestHeightsGeometric(t *testing.T) {
	const (
		n    = 1 << 16
		bins = 7     // heights 1..6, and 7 or more pooled (expected 16 towers)
		crit = 22.46 // chi-squared, 6 degrees of freedom, p = 0.001
	)
	ints := NewSkipList[int, int]()
	strided := NewSkipList[int, int]()
	strs := NewSkipList[string, int]()
	for k := 0; k < n; k++ {
		ints.Insert(nil, k, k)
		strided.Insert(nil, k<<10, k)
		strs.Insert(nil, fmt.Sprintf("key:%d", k), k)
	}
	for name, hist := range map[string][]int{"int": ints.Heights(), "int, 1024 apart,": strided.Heights(), "string": strs.Heights()} {
		chi2, rest := 0.0, 1.0
		for h := 1; h <= bins; h++ {
			observed, p := hist[h-1], heights.Mass(h)
			if h == bins {
				observed, p = 0, rest
				for _, c := range hist[h-1:] {
					observed += c
				}
			}
			rest -= p
			exp := n * p
			chi2 += (float64(observed) - exp) * (float64(observed) - exp) / exp
		}
		t.Logf("%s keys: heights %v, chi-squared %.2f", name, hist[:bins+2], chi2)
		if chi2 > crit {
			t.Errorf("%s keys: chi-squared %.2f against geometric(3/4) exceeds %.2f (p = 0.001): heights %v", name, chi2, crit, hist)
		}
	}
}
