package lockfree_test

import (
	"cmp"
	"sync"
	"testing"

	"repro/lockfree"
)

// TestMapInterfaceBehavioralParity runs the same deterministic script
// through every Map implementation; all of them must produce identical
// observable behaviour (they implement one abstract dictionary).
func TestMapInterfaceBehavioralParity(t *testing.T) {
	type step struct {
		op   string
		key  int
		want bool
	}
	script := []step{
		{"insert", 5, true},
		{"insert", 5, false},
		{"contains", 5, true},
		{"insert", 3, true},
		{"insert", 8, true},
		{"delete", 5, true},
		{"delete", 5, false},
		{"contains", 5, false},
		{"insert", 5, true},
		{"contains", 3, true},
		{"delete", 99, false},
	}
	impls := map[string]lockfree.Map[int, int]{
		"List":            lockfree.NewList[int, int](),
		"SkipList":        lockfree.NewSkipList[int, int](),
		"ListFunc":        lockfree.NewListFunc[int, int](cmp.Compare[int]),
		"SkipListFunc":    lockfree.NewSkipListFunc[int, int](cmp.Compare[int]),
		"ShardedSkipList": lockfree.NewShardedSkipList[int, int](lockfree.EqualSplitters(0, 16, 4)),
	}
	for name, m := range impls {
		for i, s := range script {
			var got bool
			switch s.op {
			case "insert":
				got = m.Insert(s.key, s.key)
			case "delete":
				got = m.Delete(s.key)
			case "contains":
				got = m.Contains(s.key)
			}
			if got != s.want {
				t.Errorf("%s step %d %s(%d) = %t, want %t", name, i, s.op, s.key, got, s.want)
			}
		}
		if m.Len() != 3 {
			t.Errorf("%s: Len = %d, want 3", name, m.Len())
		}
	}
}

// TestValueAliasingSafety stores pointer values and checks the structures
// never hand back a different pointer or lose updates made through it.
func TestValueAliasingSafety(t *testing.T) {
	type box struct{ n int }
	m := lockfree.NewSkipList[int, *box]()
	b := &box{n: 1}
	m.Insert(1, b)
	got, _ := m.Get(1)
	if got != b {
		t.Fatal("value pointer identity lost")
	}
	got.n = 42
	again, _ := m.Get(1)
	if again.n != 42 {
		t.Fatal("mutation through the stored pointer lost")
	}
}

// TestConcurrentLenConvergence checks Len converges to the exact count in
// quiescent states after bursts of concurrent activity on every Map.
func TestConcurrentLenConvergence(t *testing.T) {
	impls := map[string]lockfree.Map[int, int]{
		"List":     lockfree.NewList[int, int](),
		"SkipList": lockfree.NewSkipList[int, int](),
	}
	for name, m := range impls {
		t.Run(name, func(t *testing.T) {
			for burst := 0; burst < 4; burst++ {
				var wg sync.WaitGroup
				for w := 0; w < 6; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						base := w * 100
						for i := 0; i < 100; i++ {
							m.Insert(base+i, i)
						}
						for i := 0; i < 100; i += 2 {
							m.Delete(base + i)
						}
					}(w)
				}
				wg.Wait()
				count := 0
				m.Ascend(func(_, _ int) bool { count++; return true })
				if m.Len() != count {
					t.Fatalf("burst %d: Len=%d traversal=%d", burst, m.Len(), count)
				}
			}
		})
	}
}
