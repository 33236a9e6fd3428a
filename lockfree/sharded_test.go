package lockfree

import (
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/lockfree/telemetry"
)

func TestShardedSkipListBasic(t *testing.T) {
	s := NewShardedSkipList[int, string](EqualSplitters(0, 400, 4))
	if got := s.Shards(); got != 4 {
		t.Fatalf("Shards = %d, want 4", got)
	}
	for k := 0; k < 400; k += 7 {
		if !s.Insert(k, "v") {
			t.Fatalf("Insert(%d) = false on empty map", k)
		}
	}
	if s.Insert(7, "dup") {
		t.Fatal("Insert of duplicate succeeded")
	}
	if !s.Contains(105) || s.Contains(106) {
		t.Fatal("Contains wrong around 105/106")
	}
	if v, ok := s.Get(14); !ok || v != "v" {
		t.Fatalf("Get(14) = %q, %v", v, ok)
	}
	if !s.Delete(14) || s.Delete(14) {
		t.Fatal("Delete(14) semantics wrong")
	}
	if want := (400+6)/7 - 1; s.Len() != want {
		t.Fatalf("Len = %d, want %d", s.Len(), want)
	}
	if err := s.Map().CheckStructure(); err != nil {
		t.Fatal(err)
	}
}

func TestShardedSkipListSatisfiesMap(t *testing.T) {
	var m Map[int, int] = NewShardedSkipList[int, int](EqualSplitters(0, 100, 2))
	m.Insert(1, 1)
	m.Insert(99, 99)
	var got []int
	m.Ascend(func(k, _ int) bool { got = append(got, k); return true })
	if !slices.Equal(got, []int{1, 99}) {
		t.Fatalf("Ascend = %v", got)
	}
}

func TestShardedSkipListBatchesAndRange(t *testing.T) {
	s := NewShardedSkipList[int, int](EqualSplitters(0, 1024, 8))
	items := make([]KV[int, int], 0, 256)
	for k := 0; k < 1024; k += 4 {
		items = append(items, KV[int, int]{Key: k, Value: k * 10})
	}
	rand.New(rand.NewSource(1)).Shuffle(len(items), func(i, j int) {
		items[i], items[j] = items[j], items[i]
	})
	inserted := make([]bool, len(items))
	if n := s.InsertBatch(items, inserted); n != len(items) {
		t.Fatalf("InsertBatch = %d, want %d", n, len(items))
	}
	for i := 1; i < len(items); i++ {
		if items[i-1].Key >= items[i].Key {
			t.Fatal("InsertBatch did not sort items in place")
		}
	}

	keys := []int{512, 3, 128, 1020, 640, 644}
	vals := make([]int, len(keys))
	found := make([]bool, len(keys))
	if n := s.GetBatch(keys, vals, found); n != 5 {
		t.Fatalf("GetBatch = %d, want 5", n)
	}
	for i, k := range keys { // keys now sorted: [3 128 512 640 644 1020]
		if wantOK := k%4 == 0; found[i] != wantOK {
			t.Fatalf("found[%d] (key %d) = %v", i, k, found[i])
		} else if wantOK && vals[i] != k*10 {
			t.Fatalf("vals[%d] = %d, want %d", i, vals[i], k*10)
		}
	}

	var ranged []int
	s.AscendRange(126, 516, func(k, v int) bool {
		if v != k*10 {
			t.Fatalf("AscendRange value %d for key %d", v, k)
		}
		ranged = append(ranged, k)
		return true
	})
	if len(ranged) == 0 || ranged[0] != 128 || ranged[len(ranged)-1] != 512 {
		t.Fatalf("AscendRange bounds wrong: first %d last %d", ranged[0], ranged[len(ranged)-1])
	}
	if !slices.IsSorted(ranged) {
		t.Fatal("AscendRange out of order")
	}

	del := []int{0, 4, 8, 12, 700, 1021}
	deleted := make([]bool, len(del))
	if n := s.DeleteBatch(del, deleted); n != 5 {
		t.Fatalf("DeleteBatch = %d, want 5", n)
	}
}

func TestShardedSkipListTelemetry(t *testing.T) {
	tel := telemetry.New("sharded-facade", telemetry.WithSampleEvery(1))
	s := NewShardedSkipList[int, int](EqualSplitters(0, 64, 4), WithTelemetry(tel))
	for k := 0; k < 64; k++ {
		s.Insert(k, k)
	}
	keys := make([]int, 16)
	for i := range keys {
		keys[i] = i * 4
	}
	s.GetBatch(keys, nil, nil)
	snap := tel.Snapshot()
	if want := uint64(64 + 16); snap.Counters.ShardOps != want {
		t.Fatalf("ShardOps = %d, want %d", snap.Counters.ShardOps, want)
	}
	if snap.Ops[telemetry.OpInsert].Count != 64 {
		t.Fatalf("OpInsert count = %d, want 64", snap.Ops[telemetry.OpInsert].Count)
	}
}

func TestShardedSkipListConcurrentFacade(t *testing.T) {
	s := NewShardedSkipList[int, int](EqualSplitters(0, 4096, 4))
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 200; i++ {
				batch := make([]KV[int, int], 8)
				for j := range batch {
					k := rng.Intn(4096)
					batch[j] = KV[int, int]{Key: k, Value: k}
				}
				s.InsertBatch(batch, nil)
				keys := make([]int, 8)
				for j := range keys {
					keys[j] = rng.Intn(4096)
				}
				if rng.Intn(2) == 0 {
					s.GetBatch(keys, nil, nil)
				} else {
					s.DeleteBatch(keys, nil)
				}
				s.Insert(rng.Intn(4096), i)
				s.Delete(rng.Intn(4096))
			}
		}(int64(w))
	}
	wg.Wait()
	if err := s.Map().CheckStructure(); err != nil {
		t.Fatal(err)
	}
	prev := -1
	s.Ascend(func(k, _ int) bool {
		if k <= prev {
			t.Fatalf("Ascend not strictly increasing: %d after %d", k, prev)
		}
		prev = k
		return true
	})
}

func TestEqualSplitters(t *testing.T) {
	if got := EqualSplitters(0, 100, 1); len(got) != 0 {
		t.Fatalf("1 shard: %v", got)
	}
	if got := EqualSplitters(0, 100, 4); !slices.Equal(got, []int{25, 50, 75}) {
		t.Fatalf("EqualSplitters(0,100,4) = %v", got)
	}
	if got := EqualSplitters(-64, 64, 2); !slices.Equal(got, []int{0}) {
		t.Fatalf("EqualSplitters(-64,64,2) = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("EqualSplitters(0,100,3) did not panic")
		}
	}()
	EqualSplitters(0, 100, 3)
}

// TestEqualSplittersTooFewKeys: an interval holding fewer keys than shards
// has no strictly increasing splitters; EqualSplitters says so by name
// instead of returning duplicates for the sharded map to reject.
func TestEqualSplittersTooFewKeys(t *testing.T) {
	msg := func() (msg string) {
		defer func() { msg, _ = recover().(string) }()
		EqualSplitters(0, 1, 4)
		return ""
	}()
	if !strings.Contains(msg, "hi-lo = 1 < s = 4") {
		t.Fatalf("EqualSplitters(0, 1, 4) panicked with %q, want a message naming hi-lo < s", msg)
	}
}
