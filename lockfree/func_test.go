package lockfree_test

import (
	"cmp"
	"sort"
	"testing"

	"repro/lockfree"
)

func descending(a, b int) int { return cmp.Compare(b, a) }

func TestListFuncDescending(t *testing.T) {
	l := lockfree.NewListFunc[int, int](descending)
	for _, k := range []int{2, 7, 1, 8, 2, 8} {
		l.Insert(k, k)
	}
	var got []int
	l.Ascend(func(k, _ int) bool { got = append(got, k); return true })
	if !sort.IsSorted(sort.Reverse(sort.IntSlice(got))) || len(got) != 4 {
		t.Fatalf("descending list: %v", got)
	}
	if !l.Contains(7) || !l.Delete(7) || l.Contains(7) {
		t.Fatal("contains/delete wrong")
	}
	if l.Len() != 3 {
		t.Fatalf("Len = %d", l.Len())
	}
}

type version struct{ major, minor int }

func compareVersion(a, b version) int {
	if c := cmp.Compare(a.major, b.major); c != 0 {
		return c
	}
	return cmp.Compare(a.minor, b.minor)
}

func TestSkipListFuncStructKeys(t *testing.T) {
	m := lockfree.NewSkipListFunc[version, string](compareVersion)
	releases := []version{{1, 2}, {0, 9}, {1, 0}, {2, 0}, {0, 10}}
	for _, v := range releases {
		if !m.Insert(v, "rel") {
			t.Fatalf("Insert(%v) failed", v)
		}
	}
	var got []version
	m.Ascend(func(k version, _ string) bool { got = append(got, k); return true })
	want := []version{{0, 9}, {0, 10}, {1, 0}, {1, 2}, {2, 0}}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if v, ok := m.Get(version{1, 0}); !ok || v != "rel" {
		t.Fatalf("Get = %q, %t", v, ok)
	}
	if !m.Delete(version{1, 0}) || m.Delete(version{1, 0}) {
		t.Fatal("delete wrong")
	}
	if m.Len() != 4 {
		t.Fatalf("Len = %d", m.Len())
	}
}

// TestFuncRecycling checks that WithRecycling reaches the Func types:
// insert-delete churn, reclaimed at a quiescent point, recycles nodes.
func TestFuncRecycling(t *testing.T) {
	impls := map[string]interface {
		lockfree.Map[int, int]
		ForceReclaim()
		RecycleCounts() (recycled, dropped uint64)
	}{
		"ListFunc":     lockfree.NewListFunc[int, int](descending, lockfree.WithRecycling()),
		"SkipListFunc": lockfree.NewSkipListFunc[int, int](descending, lockfree.WithRecycling()),
	}
	for name, m := range impls {
		for round := 0; round < 8; round++ {
			for k := 0; k < 64; k++ {
				m.Insert(k, k)
			}
			for k := 0; k < 64; k++ {
				m.Delete(k)
			}
			m.ForceReclaim()
		}
		if recycled, _ := m.RecycleCounts(); recycled == 0 {
			t.Errorf("%s: no node recycled after churn and ForceReclaim", name)
		}
		if m.Len() != 0 {
			t.Errorf("%s: Len = %d after deleting every key, want 0", name, m.Len())
		}
	}
}
