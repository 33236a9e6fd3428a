package lockfree_test

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"repro/lockfree"
)

// maps returns one instance of every Map implementation for table-driven
// tests.
func maps() map[string]lockfree.Map[int, int] {
	return map[string]lockfree.Map[int, int]{
		"List":     lockfree.NewList[int, int](),
		"SkipList": lockfree.NewSkipList[int, int](),
	}
}

func TestMapBasics(t *testing.T) {
	for name, m := range maps() {
		t.Run(name, func(t *testing.T) {
			if m.Contains(1) {
				t.Fatal("empty map contains a key")
			}
			if !m.Insert(1, 10) || m.Insert(1, 11) {
				t.Fatal("insert/duplicate-insert wrong")
			}
			if v, ok := m.Get(1); !ok || v != 10 {
				t.Fatalf("Get = %d, %t", v, ok)
			}
			if m.Len() != 1 {
				t.Fatalf("Len = %d", m.Len())
			}
			if !m.Delete(1) || m.Delete(1) {
				t.Fatal("delete/double-delete wrong")
			}
			if m.Len() != 0 {
				t.Fatalf("Len after delete = %d", m.Len())
			}
		})
	}
}

func TestMapAscendSorted(t *testing.T) {
	for name, m := range maps() {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewPCG(1, 1))
			want := map[int]bool{}
			for i := 0; i < 500; i++ {
				k := int(rng.Uint64N(10000))
				m.Insert(k, k)
				want[k] = true
			}
			var got []int
			m.Ascend(func(k, _ int) bool { got = append(got, k); return true })
			if len(got) != len(want) || !sort.IntsAreSorted(got) {
				t.Fatalf("ascend: %d keys (want %d), sorted=%t",
					len(got), len(want), sort.IntsAreSorted(got))
			}
		})
	}
}

func TestMapAscendEarlyStop(t *testing.T) {
	for name, m := range maps() {
		t.Run(name, func(t *testing.T) {
			for i := 0; i < 10; i++ {
				m.Insert(i, i)
			}
			n := 0
			m.Ascend(func(k, _ int) bool { n++; return k < 4 })
			if n != 5 {
				t.Fatalf("visited %d keys, want 5", n)
			}
		})
	}
}

func TestMapConcurrent(t *testing.T) {
	for name, m := range maps() {
		t.Run(name, func(t *testing.T) {
			const workers, ops, keyRange = 8, 1500, 64
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rng := rand.New(rand.NewPCG(uint64(w), 9))
					for i := 0; i < ops; i++ {
						k := int(rng.Uint64N(keyRange))
						switch rng.Uint64N(3) {
						case 0:
							m.Insert(k, k)
						case 1:
							m.Delete(k)
						default:
							m.Contains(k)
						}
					}
				}(w)
			}
			wg.Wait()
			count := 0
			m.Ascend(func(_, _ int) bool { count++; return true })
			if m.Len() != count {
				t.Fatalf("Len = %d, traversal = %d", m.Len(), count)
			}
		})
	}
}

func TestMapMatchesBuiltinMapQuick(t *testing.T) {
	type step struct {
		Op  uint8
		Key uint8
	}
	for name, mk := range map[string]func() lockfree.Map[int, int]{
		"List":     func() lockfree.Map[int, int] { return lockfree.NewList[int, int]() },
		"SkipList": func() lockfree.Map[int, int] { return lockfree.NewSkipList[int, int]() },
	} {
		t.Run(name, func(t *testing.T) {
			f := func(steps []step) bool {
				m := mk()
				model := map[int]int{}
				for _, s := range steps {
					k := int(s.Key) % 32
					switch s.Op % 3 {
					case 0:
						_, in := model[k]
						if m.Insert(k, k) == in {
							return false
						}
						model[k] = k
					case 1:
						_, in := model[k]
						if m.Delete(k) != in {
							return false
						}
						delete(model, k)
					default:
						_, in := model[k]
						if m.Contains(k) != in {
							return false
						}
					}
				}
				return m.Len() == len(model)
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestSkipListAscendRange(t *testing.T) {
	m := lockfree.NewSkipList[int, string]()
	for i := 0; i < 100; i += 5 {
		m.Insert(i, fmt.Sprint(i))
	}
	var got []int
	m.AscendRange(12, 31, func(k int, _ string) bool { got = append(got, k); return true })
	want := []int{15, 20, 25, 30}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("AscendRange = %v, want %v", got, want)
	}
}

func TestSkipListMinDeleteMin(t *testing.T) {
	m := lockfree.NewSkipList[int, string]()
	if _, _, ok := m.Min(); ok {
		t.Fatal("Min on empty succeeded")
	}
	if _, _, ok := m.DeleteMin(); ok {
		t.Fatal("DeleteMin on empty succeeded")
	}
	m.Insert(30, "c")
	m.Insert(10, "a")
	m.Insert(20, "b")
	if k, v, ok := m.Min(); !ok || k != 10 || v != "a" {
		t.Fatalf("Min = %d, %q, %t", k, v, ok)
	}
	var order []int
	for {
		k, _, ok := m.DeleteMin()
		if !ok {
			break
		}
		order = append(order, k)
	}
	if fmt.Sprint(order) != "[10 20 30]" {
		t.Fatalf("DeleteMin order = %v", order)
	}
}

func TestSkipListDeleteMinConcurrent(t *testing.T) {
	m := lockfree.NewSkipList[int, int]()
	const n = 2000
	for i := 0; i < n; i++ {
		m.Insert(i, i)
	}
	const workers = 8
	var mu sync.Mutex
	seen := map[int]bool{}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k, _, ok := m.DeleteMin()
				if !ok {
					return
				}
				mu.Lock()
				if seen[k] {
					t.Errorf("key %d extracted twice", k)
				}
				seen[k] = true
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if len(seen) != n {
		t.Fatalf("extracted %d keys, want %d", len(seen), n)
	}
}

func TestSkipListOptions(t *testing.T) {
	m := lockfree.NewSkipList[int, int](lockfree.WithMaxLevel(4), lockfree.WithSeed(7))
	for i := 0; i < 50; i++ {
		m.Insert(i, i)
	}
	if m.Len() != 50 {
		t.Fatalf("Len = %d", m.Len())
	}
}

func TestStringKeys(t *testing.T) {
	m := lockfree.NewSkipList[string, int]()
	for i, w := range []string{"pear", "apple", "zebra", ""} {
		if !m.Insert(w, i) {
			t.Fatalf("Insert(%q) failed", w)
		}
	}
	var got []string
	m.Ascend(func(k string, _ int) bool { got = append(got, k); return true })
	if !sort.StringsAreSorted(got) || len(got) != 4 {
		t.Fatalf("ascend: %q", got)
	}
}

func ExampleNewSkipList() {
	m := lockfree.NewSkipList[string, int]()
	m.Insert("b", 2)
	m.Insert("a", 1)
	m.Insert("c", 3)
	m.Delete("b")
	m.Ascend(func(k string, v int) bool {
		fmt.Println(k, v)
		return true
	})
	// Output:
	// a 1
	// c 3
}
