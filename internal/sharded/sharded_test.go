package sharded

import (
	"math/rand/v2"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/instrument"
	"repro/internal/telemetry"
)

// flat fixes every tower height of m's shards at 1 and returns m.
func flat(m *Map[int, int]) *Map[int, int] {
	for _, sh := range m.shards {
		sh.SetHeights(func(int) int { return 1 })
	}
	return m
}

// quarters returns the splitter set {256, 512, 768}: four shards over the
// test key space [0, 1024).
func quarters() []int { return []int{256, 512, 768} }

func TestNewValidation(t *testing.T) {
	// 1, 2, 4 shards construct; 3 shards (2 splitters) must panic.
	New[int, int](nil)
	New[int, int]([]int{10})
	New[int, int](quarters())
	mustPanic(t, "non-power-of-two shard count", func() { New[int, int]([]int{1, 2}) })
	mustPanic(t, "non-increasing splitters", func() { New[int, int]([]int{5, 5, 7}) })
	mustPanic(t, "decreasing splitters", func() { New[int, int]([]int{9, 5, 7}) })
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	fn()
}

func TestShardFor(t *testing.T) {
	m := New[int, int](quarters())
	cases := []struct{ k, shard int }{
		{-100, 0}, {0, 0}, {255, 0},
		{256, 1}, {300, 1}, {511, 1}, // splitter keys belong to the right shard
		{512, 2}, {767, 2},
		{768, 3}, {100000, 3},
	}
	for _, c := range cases {
		if got := m.ShardFor(c.k); got != c.shard {
			t.Errorf("ShardFor(%d) = %d, want %d", c.k, got, c.shard)
		}
	}
}

func TestPointOpsRouteAndWork(t *testing.T) {
	m := New[int, int](quarters())
	for k := 0; k < 1024; k += 7 {
		if _, ok := m.Insert(nil, k, k*3); !ok {
			t.Fatalf("insert %d failed", k)
		}
	}
	if _, ok := m.Insert(nil, 7, 0); ok {
		t.Fatal("duplicate insert succeeded")
	}
	for k := 0; k < 1024; k++ {
		v, ok := m.Get(nil, k)
		if want := k%7 == 0; ok != want {
			t.Fatalf("Get(%d) present=%v, want %v", k, ok, want)
		}
		if ok && v != k*3 {
			t.Fatalf("Get(%d) = %d, want %d", k, v, k*3)
		}
	}
	if got, want := m.Len(), (1023/7)+1; got != want {
		t.Fatalf("Len = %d, want %d", got, want)
	}
	// Every key must be stored in the shard it routes to.
	if err := m.CheckStructure(); err != nil {
		t.Fatal(err)
	}
	// The per-shard sizes must cover the whole set (no key lost in routing).
	sum := 0
	for i := 0; i < m.Shards(); i++ {
		n := m.Shard(i).Len()
		if n == 0 {
			t.Fatalf("shard %d is empty; routing sent everything elsewhere", i)
		}
		sum += n
	}
	if sum != m.Len() {
		t.Fatalf("shard sizes sum to %d, Len = %d", sum, m.Len())
	}
	for k := 0; k < 1024; k += 7 {
		if _, ok := m.Delete(nil, k); !ok {
			t.Fatalf("delete %d failed", k)
		}
	}
	if m.Len() != 0 {
		t.Fatalf("Len = %d after deleting everything", m.Len())
	}
}

// TestBatchPartition pins the sorted-run partition: each sub-run lands in
// the owning shard, results are positional against the sorted order, and
// splitter-boundary keys go right.
func TestBatchPartition(t *testing.T) {
	m := New[int, int](quarters())
	// Unsorted batch spanning all four shards, with both splitter keys and
	// their predecessors present.
	keys := []int{900, 256, 3, 512, 255, 768, 511, 767, 100, 600}
	items := make([]core.KV[int, int], len(keys))
	for i, k := range keys {
		items[i] = core.KV[int, int]{Key: k, Value: k * 3}
	}
	inserted := make([]bool, len(items))
	if n := m.InsertBatch(nil, items, inserted); n != len(items) {
		t.Fatalf("InsertBatch = %d, want %d", n, len(items))
	}
	for i, ok := range inserted {
		if !ok {
			t.Errorf("inserted[%d] = false for fresh key %d", i, items[i].Key)
		}
	}
	if err := m.CheckStructure(); err != nil {
		t.Fatal(err)
	}
	// items was sorted in place by the batch.
	for i := 1; i < len(items); i++ {
		if items[i-1].Key >= items[i].Key {
			t.Fatalf("items not sorted after InsertBatch: %v", items)
		}
	}

	lookup := []int{255, 256, 511, 512, 767, 768, 3, 4}
	vals := make([]int, len(lookup))
	found := make([]bool, len(lookup))
	if n := m.GetBatch(nil, lookup, vals, found); n != 7 {
		t.Fatalf("GetBatch = %d, want 7 (only 4 is absent)", n)
	}
	for i, k := range lookup { // lookup is now sorted
		want := k != 4
		if found[i] != want {
			t.Errorf("found[%d] (key %d) = %v, want %v", i, k, found[i], want)
		}
		if found[i] && vals[i] != k*3 {
			t.Errorf("vals[%d] (key %d) = %d, want %d", i, k, vals[i], k*3)
		}
	}

	del := []int{768, 3, 256, 512}
	deleted := make([]bool, len(del))
	if n := m.DeleteBatch(nil, del, deleted); n != len(del) {
		t.Fatalf("DeleteBatch = %d, want %d", n, len(del))
	}
	if m.Len() != len(keys)-len(del) {
		t.Fatalf("Len = %d after batch delete, want %d", m.Len(), len(keys)-len(del))
	}
	if err := m.CheckStructure(); err != nil {
		t.Fatal(err)
	}
}

// TestBatchLargeMultiShard checks a large batch whose sub-runs cover every
// shard: each element lands positionally against the sorted order and in
// its own shard.
func TestBatchLargeMultiShard(t *testing.T) {
	m := New[int, int](quarters())
	const n = 800
	items := make([]core.KV[int, int], n)
	perm := rand.New(rand.NewPCG(1024, 175)).Perm(1024)
	for i := 0; i < n; i++ {
		items[i] = core.KV[int, int]{Key: perm[i], Value: perm[i] * 3}
	}
	inserted := make([]bool, n)
	if got := m.InsertBatch(nil, items, inserted); got != n {
		t.Fatalf("InsertBatch = %d, want %d", got, n)
	}
	keys := make([]int, n)
	for i := range items {
		keys[i] = items[i].Key
	}
	vals := make([]int, n)
	found := make([]bool, n)
	if got := m.GetBatch(nil, keys, vals, found); got != n {
		t.Fatalf("GetBatch = %d, want %d", got, n)
	}
	for i, k := range keys {
		if !found[i] || vals[i] != k*3 {
			t.Fatalf("key %d: found=%v val=%d, want true/%d", k, found[i], vals[i], k*3)
		}
	}
	if err := m.CheckStructure(); err != nil {
		t.Fatal(err)
	}
	deleted := make([]bool, n)
	if got := m.DeleteBatch(nil, keys, deleted); got != n {
		t.Fatalf("DeleteBatch = %d, want %d", got, n)
	}
	if m.Len() != 0 {
		t.Fatalf("Len = %d after DeleteBatch, want 0", m.Len())
	}
}

// TestConcurrentMixed hammers the map from several goroutines mixing point
// ops and batches — concurrent callers' sub-runs meet in the same shards —
// then validates every shard and the routing invariant.
func TestConcurrentMixed(t *testing.T) {
	m := New[int, int](quarters())
	const (
		workers = 6
		rounds  = 300
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(w), 17))
			keys := make([]int, 16)
			items := make([]core.KV[int, int], 16)
			for r := 0; r < rounds; r++ {
				switch r % 3 {
				case 0:
					for i := range items {
						k := rng.IntN(1024)
						items[i] = core.KV[int, int]{Key: k, Value: k * 3}
					}
					m.InsertBatch(nil, items, nil)
				case 1:
					for i := range keys {
						keys[i] = rng.IntN(1024)
					}
					m.GetBatch(nil, keys, nil, nil)
				case 2:
					for i := range keys {
						keys[i] = rng.IntN(1024)
					}
					m.DeleteBatch(nil, keys, nil)
				}
				k := rng.IntN(1024)
				m.Insert(nil, k, k*3)
				if v, ok := m.Get(nil, k); ok && v != k*3 {
					t.Errorf("Get(%d) = %d, want %d", k, v, k*3)
				}
				m.Delete(nil, rng.IntN(1024))
			}
		}(w)
	}
	wg.Wait()
	if err := m.CheckStructure(); err != nil {
		t.Fatal(err)
	}
}

// TestShardOpsCounting pins the shard_ops accounting: one count per point
// operation, the sub-run length per batch sub-run — through both the
// caller's OpStats and an attached recorder.
func TestShardOpsCounting(t *testing.T) {
	m := New[int, int](quarters())
	rec := telemetry.NewRecorder(1)
	rec.SetSampleEvery(1)
	m.SetTelemetry(rec)

	st := &core.OpStats{}
	p := &core.Proc{Stats: st}
	m.Insert(p, 100, 1)
	m.Get(p, 100)
	m.Delete(p, 100)
	if st.ShardOps != 3 {
		t.Fatalf("point ops recorded ShardOps = %d, want 3", st.ShardOps)
	}
	// A batch spanning three shards counts its full length, split per
	// sub-run.
	keys := []int{10, 20, 300, 310, 900, 910, 920}
	m.GetBatch(p, keys, nil, nil)
	if st.ShardOps != 3+7 {
		t.Fatalf("after batch ShardOps = %d, want %d", st.ShardOps, 3+7)
	}
	snap := rec.Snapshot()
	if snap.Counters.ShardOps != 10 {
		t.Fatalf("recorder ShardOps = %d, want 10", snap.Counters.ShardOps)
	}
	// The shards flushed their own per-op metrics into the same recorder.
	if snap.TotalOps() == 0 || snap.Counters.CASAttempts == 0 {
		t.Fatalf("shard-level metrics missing: %+v", snap.Counters)
	}
}

// TestBatchAllocs pins the zero-allocation contract of the batch path:
// Get/Delete batches allocate nothing, insert batches exactly their
// nodes — the cuts buffer is pooled, the partition uses no closures, and
// each shard's batch keeps its bracket record on the stack.
func TestBatchAllocs(t *testing.T) {
	if raceEnabled {
		// The race detector randomly drops sync.Pool puts (deliberate
		// sampling), so pooled cuts buffers reallocate and the
		// counts below stop being meaningful.
		t.Skip("allocation counts are distorted under the race detector")
	}
	m := flat(New[int, int](quarters()))
	for k := 0; k < 1024; k += 2 {
		m.Insert(nil, k, k)
	}
	keys := make([]int, 16)
	allocs := testing.AllocsPerRun(300, func() {
		for i := range keys {
			keys[i] = (i * 131) % 1024
		}
		m.GetBatch(nil, keys, nil, nil)
	})
	if allocs != 0 {
		t.Fatalf("GetBatch allocates %v objects per batch, want 0", allocs)
	}
	// The same with result slices and every descent group recorded - the
	// way lflserver calls it.
	rec := telemetry.NewRecorder(1)
	rec.SetSampleEvery(1)
	m.SetTelemetry(rec)
	vals, found := make([]int, len(keys)), make([]bool, len(keys))
	allocs = testing.AllocsPerRun(300, func() {
		for i := range keys {
			keys[i] = (i * 131) % 1024
		}
		m.GetBatch(nil, keys, vals, found)
	})
	if allocs != 0 {
		t.Fatalf("recorded GetBatch with result slices allocates %v objects per batch, want 0", allocs)
	}
	m.SetTelemetry(nil)
	items := make([]core.KV[int, int], 16)
	allocs = testing.AllocsPerRun(300, func() {
		for i := range items {
			k := i*64 + 1 // odd keys spanning all four shards
			items[i] = core.KV[int, int]{Key: k, Value: k}
			keys[i] = k
		}
		if n := m.InsertBatch(nil, items, nil); n != len(items) {
			t.Fatalf("InsertBatch = %d, want %d", n, len(items))
		}
		if n := m.DeleteBatch(nil, keys, nil); n != len(keys) {
			t.Fatalf("DeleteBatch = %d, want %d", n, len(keys))
		}
	})
	if allocs != float64(len(items)) {
		t.Fatalf("InsertBatch+DeleteBatch allocate %v objects per batch, want exactly %d (the nodes)",
			allocs, len(items))
	}
	// Point ops through the map allocate nothing beyond the skip list's own
	// contract (Get/Delete zero, Insert one node).
	k := 0
	allocs = testing.AllocsPerRun(400, func() {
		m.Get(nil, k%1024)
		k++
	})
	if allocs != 0 {
		t.Fatalf("sharded Get allocates %v objects per op, want 0", allocs)
	}
}

// TestContendedInsertThroughShards forces a shard's insert C&S to fail
// repeatedly: the insert still lands, its failed C&S reach the caller's
// recorder, and that recorder also sees the map's ShardOps.
func TestContendedInsertThroughShards(t *testing.T) {
	m := flat(New[int, int](quarters()))
	for k := 0; k <= 40; k += 2 {
		m.Insert(nil, k, k)
	}
	fired := 0
	const failures = 6
	st := &core.OpStats{}
	p := &core.Proc{Stats: st, Hooks: instrument.HookFunc(func(pt core.Point, pid int) {
		if pt == core.PtBeforeInsertCAS && fired < failures {
			fired++
			if _, ok := m.Delete(nil, 2*fired); !ok {
				t.Errorf("hook delete of key %d failed", 2*fired)
			}
		}
	})}
	if _, ok := m.Insert(p, 1, 1); !ok {
		t.Fatal("contended insert failed")
	}
	if got := st.CASAttempts - st.CASSuccesses; got < failures {
		t.Fatalf("forced %d consecutive C&S failures, recorded %d: %+v", failures, got, st)
	}
	if st.ShardOps == 0 {
		t.Fatal("ShardOps not counted on the contended insert")
	}
}
