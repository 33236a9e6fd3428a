package core

import (
	"math/rand/v2"
	"sync"
	"testing"

	"repro/internal/telemetry"
)

func TestListFingerAscending(t *testing.T) {
	l := NewList[int, int]()
	for k := 0; k < 256; k++ {
		l.Insert(nil, k, k*10)
	}
	st := &OpStats{}
	p := &Proc{Stats: st}
	f := l.NewFinger()
	for k := 0; k < 256; k++ {
		v, ok := f.Get(p, k)
		if !ok || v != k*10 {
			t.Fatalf("finger Get(%d) = %d, %t; want %d, true", k, v, ok, k*10)
		}
	}
	// The first search has no remembered node; every later one lands
	// exactly on the previous key.
	if st.FingerMisses != 1 || st.FingerHits != 255 {
		t.Fatalf("hits/misses = %d/%d, want 255/1", st.FingerHits, st.FingerMisses)
	}
	// An ascending sweep through adjacent keys must do O(1) hops per op,
	// not O(n): well under one full pass of curr updates per operation.
	if st.CurrUpdates > 3*256 {
		t.Fatalf("ascending finger sweep did %d curr updates over 256 ops, expected O(1) each", st.CurrUpdates)
	}
}

func TestListFingerBackwardFallsBack(t *testing.T) {
	l := NewList[int, int]()
	for k := 0; k < 64; k++ {
		l.Insert(nil, k, k)
	}
	st := &OpStats{}
	p := &Proc{Stats: st}
	f := l.NewFinger()
	if _, ok := f.Get(p, 50); !ok {
		t.Fatal("Get(50) failed")
	}
	// A key before the finger forces the head fallback - and must still
	// return the right answer.
	v, ok := f.Get(p, 3)
	if !ok || v != 3 {
		t.Fatalf("backward finger Get(3) = %d, %t; want 3, true", v, ok)
	}
	if st.FingerMisses != 2 { // cold start + backward jump
		t.Fatalf("misses = %d, want 2", st.FingerMisses)
	}
}

func TestListFingerMixedOps(t *testing.T) {
	l := NewList[int, int]()
	f := l.NewFinger()
	for k := 0; k < 128; k++ {
		if _, ok := f.Insert(nil, k, k); !ok {
			t.Fatalf("finger Insert(%d) failed", k)
		}
	}
	if l.Len() != 128 {
		t.Fatalf("Len = %d, want 128", l.Len())
	}
	if _, ok := f.Insert(nil, 64, 0); ok {
		t.Fatal("duplicate finger Insert(64) succeeded")
	}
	for k := 0; k < 128; k += 2 {
		if _, ok := f.Delete(nil, k); !ok {
			t.Fatalf("finger Delete(%d) failed", k)
		}
	}
	for k := 0; k < 128; k++ {
		_, ok := f.Get(nil, k)
		if want := k%2 == 1; ok != want {
			t.Fatalf("Get(%d) present=%t, want %t", k, ok, want)
		}
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestListFingerRecoversFromDeletedNode deletes the exact node the finger
// remembers and checks the next operation recovers - through backlinks,
// counted as a finger hit, never restarting from the head.
func TestListFingerRecoversFromDeletedNode(t *testing.T) {
	l := NewList[int, int]()
	for k := 0; k < 32; k++ {
		l.Insert(nil, k, k)
	}
	f := l.NewFinger()
	if _, ok := f.Get(nil, 10); !ok {
		t.Fatal("Get(10) failed")
	}
	// Fully delete node 10 (flag, mark, physical unlink) behind the
	// finger's back.
	if _, ok := l.Delete(nil, 10); !ok {
		t.Fatal("Delete(10) failed")
	}
	st := &OpStats{}
	p := &Proc{Stats: st}
	v, ok := f.Get(p, 12)
	if !ok || v != 12 {
		t.Fatalf("Get(12) after finger-node deletion = %d, %t; want 12, true", v, ok)
	}
	if st.FingerHits != 1 || st.FingerMisses != 0 {
		t.Fatalf("recovery counted hits/misses = %d/%d, want 1/0", st.FingerHits, st.FingerMisses)
	}
	if st.BacklinkTraversals == 0 {
		t.Fatal("recovery from a deleted finger node did not walk backlinks")
	}
}

func TestSkipFingerAscending(t *testing.T) {
	l := NewSkipList[int, int]()
	for k := 0; k < 256; k++ {
		l.Insert(nil, k, k*10)
	}
	st := &OpStats{}
	p := &Proc{Stats: st}
	f := l.NewFinger()
	for k := 0; k < 256; k++ {
		v, ok := f.Get(p, k)
		if !ok || v != k*10 {
			t.Fatalf("skip finger Get(%d) = %d, %t; want %d, true", k, v, ok, k*10)
		}
	}
	if st.FingerMisses != 1 || st.FingerHits != 255 {
		t.Fatalf("hits/misses = %d/%d, want 255/1", st.FingerHits, st.FingerMisses)
	}
	// Adjacent keys must resolve on level 1, where the remembered bracket
	// still holds the next key: a hop per op, no descent from the top of
	// the head tower.
	if st.CurrUpdates > 4*256 {
		t.Fatalf("ascending skip finger sweep did %d curr updates over 256 ops", st.CurrUpdates)
	}
}

func TestSkipFingerMixedOps(t *testing.T) {
	l := NewSkipList[int, int]()
	f := l.NewFinger()
	for k := 0; k < 256; k++ {
		if _, ok := f.Insert(nil, k, k); !ok {
			t.Fatalf("skip finger Insert(%d) failed", k)
		}
	}
	if _, ok := f.Insert(nil, 100, 0); ok {
		t.Fatal("duplicate skip finger Insert(100) succeeded")
	}
	for k := 0; k < 256; k += 2 {
		if _, ok := f.Delete(nil, k); !ok {
			t.Fatalf("skip finger Delete(%d) failed", k)
		}
	}
	for k := 0; k < 256; k++ {
		_, ok := f.Get(nil, k)
		if want := k%2 == 1; ok != want {
			t.Fatalf("Get(%d) present=%t, want %t", k, ok, want)
		}
	}
	if err := l.CheckStructure(); err != nil {
		t.Fatal(err)
	}
}

// TestSkipFingerRandomOpsAgainstMap drives one long-lived finger with
// random operations on random keys - forward and backward moves of every
// size, tower building and sweeps from whatever level the climb picks -
// against a reference map.
func TestSkipFingerRandomOpsAgainstMap(t *testing.T) {
	const span = 4096
	l := NewSkipList[int, int]()
	f := l.NewFinger()
	ref := map[int]int{}
	rng := rand.New(rand.NewPCG(12, 34))
	for i := 0; i < 40000; i++ {
		k := rng.IntN(span)
		if i%4 == 3 {
			k = max(0, min(span-1, k%64-32+i%span)) // a run of nearby keys
		}
		switch rng.IntN(3) {
		case 0:
			_, had := ref[k]
			if _, ok := f.Insert(nil, k, i); ok == had {
				t.Fatalf("op %d: Insert(%d) = %t with key present=%t", i, k, ok, had)
			}
			if !had {
				ref[k] = i
			}
		case 1:
			_, had := ref[k]
			if _, ok := f.Delete(nil, k); ok != had {
				t.Fatalf("op %d: Delete(%d) = %t with key present=%t", i, k, ok, had)
			}
			delete(ref, k)
		default:
			want, had := ref[k]
			if v, ok := f.Get(nil, k); ok != had || (had && v != want) {
				t.Fatalf("op %d: Get(%d) = %d, %t; want %d, %t", i, k, v, ok, want, had)
			}
		}
	}
	if l.Len() != len(ref) {
		t.Fatalf("Len = %d, reference holds %d", l.Len(), len(ref))
	}
	if err := l.CheckStructure(); err != nil {
		t.Fatal(err)
	}
}

func TestSkipFingerRecoversFromDeletedNode(t *testing.T) {
	l := NewSkipList[int, int]()
	for k := 0; k < 64; k++ {
		l.Insert(nil, k, k)
	}
	f := l.NewFinger()
	if _, ok := f.Get(nil, 20); !ok {
		t.Fatal("Get(20) failed")
	}
	if _, ok := l.Delete(nil, 20); !ok {
		t.Fatal("Delete(20) failed")
	}
	st := &OpStats{}
	p := &Proc{Stats: st}
	v, ok := f.Get(p, 21)
	if !ok || v != 21 {
		t.Fatalf("Get(21) after finger-node deletion = %d, %t; want 21, true", v, ok)
	}
	if st.FingerMisses != 0 {
		t.Fatalf("recovery fell back to the head tower (%d misses), want backlink recovery", st.FingerMisses)
	}
}

// TestPointOpsCountNoFingerEvents: a point Insert or Delete runs over a
// bracket record of its own, but it is not a finger - neither the caller's
// finger counters nor the recorder's finger_hits/finger_misses may move,
// whatever the towers' heights. Finger operations on the same list still
// count, so the counters are live.
func TestPointOpsCountNoFingerEvents(t *testing.T) {
	l := rigged(allHeight(4))
	rec := telemetry.NewRecorder(1)
	rec.SetSampleEvery(1)
	l.SetTelemetry(rec)
	st := &OpStats{}
	p := &Proc{Stats: st}
	for k := 0; k < 64; k++ {
		l.Insert(p, k, k)
	}
	for k := 0; k < 64; k++ {
		l.Get(p, k)
	}
	for k := 0; k < 64; k += 2 {
		l.Delete(p, k)
	}
	c := rec.Snapshot().Counters
	if st.FingerHits != 0 || st.FingerMisses != 0 || c.FingerHits != 0 || c.FingerMisses != 0 {
		t.Fatalf("point ops counted finger hits/misses %d/%d (recorder: %d/%d), want 0/0",
			st.FingerHits, st.FingerMisses, c.FingerHits, c.FingerMisses)
	}
	if err := l.CheckStructure(); err != nil {
		t.Fatal(err)
	}

	f := l.NewFinger()
	f.Insert(p, 100, 100)
	f.Get(p, 1)
	f.Delete(p, 100)
	c = rec.Snapshot().Counters
	if st.FingerHits+st.FingerMisses == 0 || c.FingerHits != st.FingerHits || c.FingerMisses != st.FingerMisses {
		t.Fatalf("finger ops counted hits/misses %d/%d (recorder: %d/%d)",
			st.FingerHits, st.FingerMisses, c.FingerHits, c.FingerMisses)
	}
}

func TestSkipFingerReset(t *testing.T) {
	l := NewSkipList[int, int]()
	for k := 0; k < 32; k++ {
		l.Insert(nil, k, k)
	}
	f := l.NewFinger()
	if _, ok := f.Get(nil, 30); !ok {
		t.Fatal("Get(30) failed")
	}
	f.Reset()
	st := &OpStats{}
	if _, ok := f.Get(&Proc{Stats: st}, 5); !ok {
		t.Fatal("Get(5) after Reset failed")
	}
	if st.FingerHits != 0 || st.FingerMisses != 1 {
		t.Fatalf("post-Reset hits/misses = %d/%d, want 0/1", st.FingerHits, st.FingerMisses)
	}
}

func TestListBatch(t *testing.T) {
	l := NewList[int, int]()
	items := make([]KV[int, int], 0, 100)
	for k := 99; k >= 0; k-- { // deliberately unsorted input
		items = append(items, KV[int, int]{Key: k, Value: k * 10})
	}
	inserted := make([]bool, len(items))
	if n := l.InsertBatch(nil, items, inserted); n != 100 {
		t.Fatalf("InsertBatch = %d, want 100", n)
	}
	for i := 1; i < len(items); i++ {
		if items[i-1].Key >= items[i].Key {
			t.Fatal("InsertBatch did not sort items in place")
		}
	}
	for i, ok := range inserted {
		if !ok {
			t.Fatalf("inserted[%d] = false", i)
		}
	}
	// Re-inserting the same pairs: all duplicates.
	if n := l.InsertBatch(nil, items, inserted); n != 0 {
		t.Fatalf("duplicate InsertBatch = %d, want 0", n)
	}

	keys := []int{50, 3, 200, 77, 0} // 200 is absent
	vals := make([]int, len(keys))
	found := make([]bool, len(keys))
	if n := l.GetBatch(nil, keys, vals, found); n != 4 {
		t.Fatalf("GetBatch = %d, want 4", n)
	}
	for i, k := range keys { // keys is now sorted: 0,3,50,77,200
		wantOK := k < 100
		if found[i] != wantOK {
			t.Fatalf("found[%d] (key %d) = %t, want %t", i, k, found[i], wantOK)
		}
		if wantOK && vals[i] != k*10 {
			t.Fatalf("vals[%d] (key %d) = %d, want %d", i, k, vals[i], k*10)
		}
	}

	del := []int{10, 20, 10, 999} // duplicate and absent keys
	deleted := make([]bool, len(del))
	if n := l.DeleteBatch(nil, del, deleted); n != 2 {
		t.Fatalf("DeleteBatch = %d, want 2", n)
	}
	// Sorted: 10, 10, 20, 999 - the second 10 and 999 must fail.
	want := []bool{true, false, true, false}
	for i := range want {
		if deleted[i] != want[i] {
			t.Fatalf("deleted = %v, want %v", deleted, want)
		}
	}
	if l.Len() != 98 {
		t.Fatalf("Len = %d, want 98", l.Len())
	}
	// nil result slices only count.
	if n := l.GetBatch(nil, []int{0, 10, 30}, nil, nil); n != 2 {
		t.Fatalf("GetBatch with nil results = %d, want 2", n)
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSkipListBatch(t *testing.T) {
	l := NewSkipList[int, int]()
	items := make([]KV[int, int], 0, 200)
	for k := 199; k >= 0; k-- {
		items = append(items, KV[int, int]{Key: k, Value: -k})
	}
	if n := l.InsertBatch(nil, items, nil); n != 200 {
		t.Fatalf("InsertBatch = %d, want 200", n)
	}
	keys := make([]int, 0, 200)
	for k := 199; k >= 0; k-- {
		keys = append(keys, k)
	}
	vals := make([]int, len(keys))
	if n := l.GetBatch(nil, keys, vals, nil); n != 200 {
		t.Fatalf("GetBatch = %d, want 200", n)
	}
	for i, k := range keys {
		if vals[i] != -k {
			t.Fatalf("vals[%d] (key %d) = %d, want %d", i, k, vals[i], -k)
		}
	}
	if n := l.DeleteBatch(nil, keys, nil); n != 200 {
		t.Fatalf("DeleteBatch = %d, want 200", n)
	}
	if l.Len() != 0 {
		t.Fatalf("Len = %d, want 0", l.Len())
	}
	if err := l.CheckStructure(); err != nil {
		t.Fatal(err)
	}
}

// TestBatchConcurrent hammers overlapping batches from many goroutines -
// under -race this is the finger-invalidation stress the tentpole calls
// for: every goroutine's finger repeatedly lands on nodes other
// goroutines are deleting.
func TestBatchConcurrent(t *testing.T) {
	const (
		workers = 8
		rounds  = 40
		span    = 512
	)
	list := NewList[int, int]()
	skip := NewSkipList[int, int]()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(w), 99))
			items := make([]KV[int, int], 32)
			keys := make([]int, 32)
			for r := 0; r < rounds; r++ {
				base := rng.IntN(span)
				for i := range items {
					k := (base + rng.IntN(64)) % span
					items[i] = KV[int, int]{Key: k, Value: w}
					keys[i] = k
				}
				list.InsertBatch(nil, items, nil)
				skip.InsertBatch(nil, items, nil)
				list.GetBatch(nil, keys, nil, nil)
				skip.GetBatch(nil, keys, nil, nil)
				if r%2 == 1 {
					list.DeleteBatch(nil, keys, nil)
					skip.DeleteBatch(nil, keys, nil)
				}
			}
		}(w)
	}
	wg.Wait()
	if err := list.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := skip.CheckStructure(); err != nil {
		t.Fatal(err)
	}
	// Quiescent contents are in range and Len agrees with an actual walk.
	// (The list and skip list saw the same batches but under different
	// interleavings, so their contents may legitimately differ.)
	for _, check := range []struct {
		name string
		len  int
		walk func(func(k, v int) bool)
	}{
		{"list", list.Len(), list.Ascend},
		{"skiplist", skip.Len(), skip.Ascend},
	} {
		n := 0
		last := -1
		check.walk(func(k, v int) bool {
			if k <= last || k < 0 || k >= span {
				t.Errorf("%s: out-of-order or out-of-range key %d after %d", check.name, k, last)
			}
			last = k
			n++
			return true
		})
		if n != check.len {
			t.Errorf("%s: Len() = %d but walk saw %d keys", check.name, check.len, n)
		}
	}
}

// TestFingerConcurrentChurn drives long-lived fingers (not batch-local
// ones) through a structure other goroutines are churning, so remembered
// nodes are constantly invalidated mid-stream.
func TestFingerConcurrentChurn(t *testing.T) {
	const span = 256
	l := NewList[int, int]()
	sl := NewSkipList[int, int]()
	for k := 0; k < span; k += 2 {
		l.Insert(nil, k, k)
		sl.Insert(nil, k, k)
	}
	stop := make(chan struct{})
	var churn sync.WaitGroup
	for w := 0; w < 3; w++ {
		churn.Add(1)
		go func(w int) {
			defer churn.Done()
			rng := rand.New(rand.NewPCG(uint64(w), 7))
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := rng.IntN(span)
				if rng.IntN(2) == 0 {
					l.Insert(nil, k, k)
					sl.Insert(nil, k, k)
				} else {
					l.Delete(nil, k)
					sl.Delete(nil, k)
				}
			}
		}(w)
	}
	var readers sync.WaitGroup
	for w := 0; w < 3; w++ {
		readers.Add(1)
		go func(w int) {
			defer readers.Done()
			f := l.NewFinger()
			sf := sl.NewFinger()
			for r := 0; r < 200; r++ {
				for k := 0; k < span; k += 3 {
					f.Get(nil, k)
					sf.Get(nil, k)
				}
			}
		}(w)
	}
	readers.Wait()
	close(stop)
	churn.Wait()
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := sl.CheckStructure(); err != nil {
		t.Fatal(err)
	}
}
