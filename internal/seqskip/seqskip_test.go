package seqskip

import (
	"math/rand/v2"
	"sort"
	"testing"
	"testing/quick"
)

func TestSeqSkipBasic(t *testing.T) {
	l := New[int, string](0, 1)
	if _, ok := l.Get(1); ok {
		t.Fatal("found key in empty list")
	}
	if !l.Insert(1, "one") || !l.Insert(2, "two") {
		t.Fatal("insert failed")
	}
	if l.Insert(1, "uno") {
		t.Fatal("duplicate insert succeeded")
	}
	if v, ok := l.Get(1); !ok || v != "one" {
		t.Fatalf("Get(1) = %q, %t", v, ok)
	}
	if !l.Delete(1) || l.Delete(1) {
		t.Fatal("delete/double-delete wrong")
	}
	if l.Len() != 1 {
		t.Fatalf("Len = %d", l.Len())
	}
}

func TestSeqSkipAgainstMap(t *testing.T) {
	l := New[int, int](0, 2)
	model := map[int]int{}
	rng := rand.New(rand.NewPCG(3, 4))
	for i := 0; i < 20000; i++ {
		k := int(rng.Uint64N(512))
		switch rng.Uint64N(3) {
		case 0:
			_, in := model[k]
			if got := l.Insert(k, k); got == in {
				t.Fatalf("Insert(%d) = %t, model has = %t", k, got, in)
			}
			model[k] = k
		case 1:
			_, in := model[k]
			if got := l.Delete(k); got != in {
				t.Fatalf("Delete(%d) = %t, model has = %t", k, got, in)
			}
			delete(model, k)
		default:
			_, in := model[k]
			if got := l.Contains(k); got != in {
				t.Fatalf("Contains(%d) = %t, model has = %t", k, got, in)
			}
		}
	}
	if l.Len() != len(model) {
		t.Fatalf("Len = %d, model = %d", l.Len(), len(model))
	}
	var keys []int
	l.Ascend(func(k, _ int) bool { keys = append(keys, k); return true })
	if !sort.IntsAreSorted(keys) {
		t.Fatal("not sorted")
	}
}

func TestSeqSkipHeightsGeometric(t *testing.T) {
	l := New[int, int](0, 5)
	const n = 50000
	for i := 0; i < n; i++ {
		l.Insert(i, i)
	}
	hist := l.Heights()
	if hist[0] < n*13/20 || hist[0] > n*17/20 {
		t.Fatalf("height-1 towers = %d, want near %d", hist[0], n*3/4)
	}
	total := 0
	for _, c := range hist {
		total += c
	}
	if total != n {
		t.Fatalf("histogram mass %d != %d", total, n)
	}
}

func TestSeqSkipSearchStepsLogarithmic(t *testing.T) {
	// Average search steps should grow roughly logarithmically: compare
	// n=1024 with n=65536; ratio of average steps should be far below the
	// 64x size ratio (allowing generous slack, below 4x).
	avg := func(n int) float64 {
		l := New[int, int](0, uint64(n))
		for i := 0; i < n; i++ {
			l.Insert(i, i)
		}
		total := 0
		for i := 0; i < 1000; i++ {
			total += l.SearchSteps(i * (n / 1000))
		}
		return float64(total) / 1000
	}
	small, large := avg(1024), avg(65536)
	if large > small*4 {
		t.Fatalf("search steps scaled superlogarithmically: %f -> %f", small, large)
	}
}

func TestSeqSkipQuickInsertDeleteRoundTrip(t *testing.T) {
	f := func(keys []int16) bool {
		l := New[int16, int](0, 99)
		uniq := map[int16]bool{}
		for _, k := range keys {
			want := !uniq[k]
			if l.Insert(k, int(k)) != want {
				return false
			}
			uniq[k] = true
		}
		if l.Len() != len(uniq) {
			return false
		}
		for k := range uniq {
			if !l.Delete(k) {
				return false
			}
		}
		return l.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
