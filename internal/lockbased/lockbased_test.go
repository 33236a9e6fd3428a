package lockbased

import (
	"math/rand/v2"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/heights"
)

func TestLockedListSequential(t *testing.T) {
	l := NewList[int, int]()
	for i := 99; i >= 0; i-- {
		if !l.Insert(i, i) {
			t.Fatalf("Insert(%d) failed", i)
		}
	}
	if l.Insert(5, 0) {
		t.Fatal("duplicate insert succeeded")
	}
	if l.Len() != 100 {
		t.Fatalf("Len = %d", l.Len())
	}
	for i := 0; i < 100; i += 2 {
		if !l.Delete(i) {
			t.Fatalf("Delete(%d) failed", i)
		}
	}
	var keys []int
	l.Ascend(func(k, _ int) bool { keys = append(keys, k); return true })
	if len(keys) != 50 || !sort.IntsAreSorted(keys) {
		t.Fatalf("traversal: %d keys", len(keys))
	}
}

func TestLockedListConcurrent(t *testing.T) {
	l := NewList[int, int]()
	const workers, ops, keyRange = 8, 2000, 64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(w), 1))
			for i := 0; i < ops; i++ {
				k := int(rng.Uint64N(keyRange))
				switch rng.Uint64N(3) {
				case 0:
					l.Insert(k, k)
				case 1:
					l.Delete(k)
				default:
					l.Contains(k)
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

func TestLockedSkipListSequential(t *testing.T) {
	l := NewSkipList[string, int](0, heights.DefaultSeed)
	words := []string{"d", "a", "c", "b"}
	for i, w := range words {
		if !l.Insert(w, i) {
			t.Fatalf("Insert(%q) failed", w)
		}
	}
	if v, ok := l.Get("c"); !ok || v != 2 {
		t.Fatalf("Get(c) = %d, %t", v, ok)
	}
	if !l.Delete("a") || l.Delete("a") {
		t.Fatal("delete wrong")
	}
	var keys []string
	l.Ascend(func(k string, _ int) bool { keys = append(keys, k); return true })
	if !sort.StringsAreSorted(keys) || len(keys) != 3 {
		t.Fatalf("traversal: %v", keys)
	}
}

func TestLockedSkipListConcurrent(t *testing.T) {
	l := NewSkipList[int, int](0, heights.DefaultSeed)
	const workers, ops, keyRange = 8, 2000, 64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(w), 2))
			for i := 0; i < ops; i++ {
				k := int(rng.Uint64N(keyRange))
				switch rng.Uint64N(3) {
				case 0:
					l.Insert(k, k)
				case 1:
					l.Delete(k)
				default:
					l.Contains(k)
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

func TestLockedSkipListLockedBlocks(t *testing.T) {
	l := NewSkipList[int, int](0, heights.DefaultSeed)
	l.Insert(1, 1)
	entered := make(chan struct{})
	release := make(chan struct{})
	go l.Locked(func() {
		close(entered)
		<-release
	})
	<-entered
	// A concurrent reader must block until the holder leaves.
	got := make(chan bool, 1)
	go func() { got <- l.Contains(1) }()
	select {
	case <-got:
		t.Fatal("read completed while the write lock was held")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	if !<-got {
		t.Fatal("read failed after release")
	}
}
