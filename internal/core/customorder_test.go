package core

import (
	"cmp"
	"sort"
	"testing"
)

// reverse orders ints descending.
func reverse(a, b int) int { return cmp.Compare(b, a) }

func TestListFuncCustomOrdering(t *testing.T) {
	l := NewListFunc[int, int](reverse)
	for _, k := range []int{3, 1, 4, 1, 5, 9, 2, 6} {
		l.Insert(nil, k, k)
	}
	var got []int
	l.Ascend(func(k, _ int) bool { got = append(got, k); return true })
	if !sort.IsSorted(sort.Reverse(sort.IntSlice(got))) {
		t.Fatalf("not descending: %v", got)
	}
	if len(got) != 7 { // 1 deduplicated
		t.Fatalf("got %d keys", len(got))
	}
	if _, ok := l.Get(nil, 4); !ok {
		t.Fatal("Get(4) missed under custom order")
	}
	if _, ok := l.Delete(nil, 9); !ok {
		t.Fatal("Delete(9) failed under custom order")
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSkipListFuncCustomOrdering(t *testing.T) {
	l := NewSkipListFunc[int, int](reverse, WithSeed(64))
	for k := 0; k < 300; k++ {
		l.Insert(nil, k, k)
	}
	var got []int
	l.Ascend(func(k, _ int) bool { got = append(got, k); return true })
	if len(got) != 300 || !sort.IsSorted(sort.Reverse(sort.IntSlice(got))) {
		t.Fatalf("descending skip list broken: len=%d", len(got))
	}
	for k := 0; k < 300; k += 5 {
		if _, ok := l.Delete(nil, k); !ok {
			t.Fatalf("Delete(%d) failed", k)
		}
	}
	if err := l.CheckStructure(); err != nil {
		t.Fatal(err)
	}
	if l.Len() != 240 {
		t.Fatalf("Len = %d", l.Len())
	}
}

// pair keys exercise struct keys with a lexicographic comparator - the
// use case the compare-func constructors exist for (see
// lockfree.PriorityQueue).
type pair struct{ a, b int }

func comparePair(x, y pair) int {
	if c := cmp.Compare(x.a, y.a); c != 0 {
		return c
	}
	return cmp.Compare(x.b, y.b)
}

func TestSkipListFuncStructKeys(t *testing.T) {
	l := NewSkipListFunc[pair, string](comparePair, WithSeed(65))
	keys := []pair{{2, 1}, {1, 9}, {1, 2}, {2, 0}, {0, 5}}
	for _, k := range keys {
		if _, ok := l.Insert(nil, k, "v"); !ok {
			t.Fatalf("Insert(%v) failed", k)
		}
	}
	if _, ok := l.Insert(nil, pair{1, 2}, "dup"); ok {
		t.Fatal("duplicate struct key accepted")
	}
	var got []pair
	l.Ascend(func(k pair, _ string) bool { got = append(got, k); return true })
	want := []pair{{0, 5}, {1, 2}, {1, 9}, {2, 0}, {2, 1}}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if _, ok := l.Delete(nil, pair{1, 9}); !ok {
		t.Fatal("Delete(struct key) failed")
	}
	if err := l.CheckStructure(); err != nil {
		t.Fatal(err)
	}
}

// TestSearchToLevelStructKeysStrict exercises the strict ("k - epsilon")
// search with struct keys, the path Delete uses.
func TestStructKeyDeleteRoundTrip(t *testing.T) {
	l := NewListFunc[pair, int](comparePair)
	for a := 0; a < 10; a++ {
		for b := 0; b < 10; b++ {
			l.Insert(nil, pair{a, b}, a*10+b)
		}
	}
	if l.Len() != 100 {
		t.Fatalf("Len = %d", l.Len())
	}
	for a := 0; a < 10; a++ {
		for b := 0; b < 10; b += 2 {
			if _, ok := l.Delete(nil, pair{a, b}); !ok {
				t.Fatalf("Delete(%d,%d) failed", a, b)
			}
		}
	}
	if l.Len() != 50 {
		t.Fatalf("Len = %d", l.Len())
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
