package core

import (
	"math/rand/v2"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/seqskip"
)

// opScript is a generated operation sequence for property-based tests.
type opScript struct {
	Ops  []uint8
	Keys []uint8
}

func (s opScript) steps() int { return min(len(s.Ops), len(s.Keys)) }

// TestQuickListMatchesModel drives random operation sequences against the
// list and a map model; every return value must match.
func TestQuickListMatchesModel(t *testing.T) {
	f := func(s opScript) bool {
		l := NewList[int, int]()
		model := map[int]int{}
		for i := 0; i < s.steps(); i++ {
			k := int(s.Keys[i]) % 64
			switch s.Ops[i] % 3 {
			case 0:
				_, in := model[k]
				if _, ok := l.Insert(nil, k, k); ok == in {
					return false
				}
				model[k] = k
			case 1:
				_, in := model[k]
				if _, ok := l.Delete(nil, k); ok != in {
					return false
				}
				delete(model, k)
			default:
				_, in := model[k]
				if got := l.Search(nil, k) != nil; got != in {
					return false
				}
			}
		}
		if l.Len() != len(model) {
			return false
		}
		return l.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickSkipListMatchesSeqskip drives random sequences against the
// concurrent skip list and Pugh's sequential skip list; results must agree
// operation by operation.
func TestQuickSkipListMatchesSeqskip(t *testing.T) {
	var seed uint64
	f := func(s opScript) bool {
		seed++
		l := NewSkipList[int, int](WithSeed(seed))
		model := seqskip.New[int, int](0, seed)
		for i := 0; i < s.steps(); i++ {
			k := int(s.Keys[i]) % 48
			switch s.Ops[i] % 3 {
			case 0:
				_, ok := l.Insert(nil, k, k)
				if ok != model.Insert(k, k) {
					return false
				}
			case 1:
				_, ok := l.Delete(nil, k)
				if ok != model.Delete(k) {
					return false
				}
			default:
				if (l.Search(nil, k) != nil) != model.Contains(k) {
					return false
				}
			}
		}
		if l.Len() != model.Len() {
			return false
		}
		// The ordered contents must be identical.
		var got, want []int
		l.Ascend(func(k, _ int) bool { got = append(got, k); return true })
		model.Ascend(func(k, _ int) bool { want = append(want, k); return true })
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return l.CheckStructure() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickListAscendSorted checks the iterator invariant: Ascend yields
// strictly increasing keys for any insertion order.
func TestQuickListAscendSorted(t *testing.T) {
	f := func(keys []int16) bool {
		l := NewList[int16, int]()
		for _, k := range keys {
			l.Insert(nil, k, 0)
		}
		prev := int32(-1 << 20)
		ok := true
		l.Ascend(func(k int16, _ int) bool {
			if int32(k) <= prev {
				ok = false
				return false
			}
			prev = int32(k)
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickSkipListHeightsTotal checks that the height histogram always
// accounts for exactly the live keys.
func TestQuickSkipListHeightsTotal(t *testing.T) {
	var seed uint64
	f := func(keys []uint8, dels []uint8) bool {
		seed++
		l := NewSkipList[int, int](WithSeed(seed))
		for _, k := range keys {
			l.Insert(nil, int(k), 0)
		}
		for _, k := range dels {
			l.Delete(nil, int(k))
		}
		total := 0
		for _, c := range l.Heights() {
			total += c
		}
		return total == l.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentMixedAgainstPerKeyOwnership: workers own disjoint key
// ranges, so each worker's view must behave sequentially even though the
// physical list is shared and recovery paths interleave.
func TestSkipListMixedChurnModel(t *testing.T) {
	l := NewSkipList[int, int](WithSeed(77))
	const workers = 6
	const perWorkerKeys = 60
	const ops = 1500
	finals := make([]map[int]bool, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(w)+50, 1))
			p := &Proc{ID: w}
			model := map[int]bool{}
			base := w * perWorkerKeys
			for i := 0; i < ops; i++ {
				k := base + int(rng.Uint64N(perWorkerKeys))
				switch rng.Uint64N(3) {
				case 0:
					_, ok := l.Insert(p, k, k)
					if ok == model[k] {
						t.Errorf("Insert(%d)=%t but model=%t", k, ok, model[k])
						return
					}
					model[k] = true
				case 1:
					_, ok := l.Delete(p, k)
					if ok != model[k] {
						t.Errorf("Delete(%d)=%t but model=%t", k, ok, model[k])
						return
					}
					delete(model, k)
				default:
					if got := l.Search(p, k) != nil; got != model[k] {
						t.Errorf("Search(%d)=%t but model=%t", k, got, model[k])
						return
					}
				}
			}
			finals[w] = model
		}(w)
	}
	wg.Wait()
	if err := l.CheckStructure(); err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, m := range finals {
		want += len(m)
	}
	if got := l.Len(); got != want {
		t.Fatalf("Len = %d, want %d", got, want)
	}
}
