package core

import (
	"testing"

	"repro/internal/instrument"
	"repro/internal/telemetry"
)

// These tests pin the zero-allocation contract of the interned-record hot
// path: steady-state Get and Delete perform no heap allocations at all,
// and Insert allocates exactly its node - once - no matter how many C&S
// retries contention forces. They are the regression guard for the
// interning of successor records (node.go / skipnode.go): reintroducing a
// per-CAS record allocation fails them immediately.

func TestAllocsListGet(t *testing.T) {
	l := NewList[int, int]()
	for k := 0; k < 128; k++ {
		l.Insert(nil, k, k)
	}
	k := 0
	allocs := testing.AllocsPerRun(500, func() {
		l.Search(nil, k%128)
		l.Get(nil, (k+64)%128)
		k++
	})
	if allocs != 0 {
		t.Fatalf("Get/Search allocate %v objects per op, want 0", allocs)
	}
}

func TestAllocsListDelete(t *testing.T) {
	l := NewList[int, int]()
	const runs = 400
	for k := 0; k < runs+2; k++ {
		l.Insert(nil, k, k)
	}
	k := 0
	allocs := testing.AllocsPerRun(runs, func() {
		if _, ok := l.Delete(nil, k); !ok {
			t.Fatalf("delete of present key %d failed", k)
		}
		k++
	})
	if allocs != 0 {
		t.Fatalf("Delete allocates %v objects per op, want 0", allocs)
	}
	// Deleting an absent key (pure search) must also be allocation-free.
	if allocs := testing.AllocsPerRun(200, func() { l.Delete(nil, -1) }); allocs != 0 {
		t.Fatalf("Delete(miss) allocates %v objects per op, want 0", allocs)
	}
}

func TestAllocsListInsert(t *testing.T) {
	l := NewList[int, int]()
	for k := 0; k < 64; k++ {
		l.Insert(nil, k, k)
	}
	// A duplicate insert returns before allocating the node.
	if allocs := testing.AllocsPerRun(200, func() { l.Insert(nil, 17, 17) }); allocs != 0 {
		t.Fatalf("Insert(duplicate) allocates %v objects per op, want 0", allocs)
	}
	// An insert/delete pair allocates exactly the node: the interned
	// records ride inside it, and the deletion's three C&S install
	// interned records only.
	if allocs := testing.AllocsPerRun(200, func() {
		l.Insert(nil, 1000, 1000)
		l.Delete(nil, 1000)
	}); allocs != 1 {
		t.Fatalf("Insert+Delete pair allocates %v objects, want exactly 1 (the node)", allocs)
	}
}

// TestAllocsListInsertRetry forces the insertion C&S to fail once per
// operation - a hook deletes the insert's successor between the search and
// the C&S - and asserts the retry loop allocates nothing beyond the single
// node. Before interning, every failed attempt cost two fresh records
// (newNode.succ plus the C&S argument).
func TestAllocsListInsertRetry(t *testing.T) {
	l := NewList[int, int]()
	const runs = 200
	for k := 0; k <= 2*(runs+2); k += 2 {
		l.Insert(nil, k, k)
	}
	i := 0
	fired := false
	p := &Proc{Hooks: instrument.HookFunc(func(pt Point, pid int) {
		if pt == PtBeforeInsertCAS && !fired {
			fired = true
			// Delete the successor the pending C&S expects: its
			// predecessor's record changes and the C&S must retry.
			if _, ok := l.Delete(nil, 2*i+2); !ok {
				t.Errorf("hook delete of key %d failed", 2*i+2)
			}
		}
	})}
	retried := &OpStats{}
	p.Stats = retried
	allocs := testing.AllocsPerRun(runs, func() {
		fired = false
		if _, ok := l.Insert(p, 2*i+1, 0); !ok {
			t.Fatalf("insert of fresh key %d failed", 2*i+1)
		}
		i++
	})
	if allocs != 1 {
		t.Fatalf("contended Insert allocates %v objects per op, want exactly 1 (the node)", allocs)
	}
	if retried.CASAttempts <= retried.CASSuccesses {
		t.Fatalf("schedule did not force failed C&S attempts: %+v", retried)
	}
}

func TestAllocsSkipListGet(t *testing.T) {
	l := NewSkipList[int, int]()
	for k := 0; k < 128; k++ {
		l.Insert(nil, k, k)
	}
	k := 0
	allocs := testing.AllocsPerRun(500, func() {
		l.Search(nil, k%128)
		l.Get(nil, (k+64)%128)
		k++
	})
	if allocs != 0 {
		t.Fatalf("skip-list Get/Search allocate %v objects per op, want 0", allocs)
	}
}

func TestAllocsSkipListDelete(t *testing.T) {
	l := NewSkipList[int, int]()
	const runs = 400
	for k := 0; k < runs+2; k++ {
		l.Insert(nil, k, k)
	}
	k := 0
	allocs := testing.AllocsPerRun(runs, func() {
		if _, ok := l.Delete(nil, k); !ok {
			t.Fatalf("delete of present key %d failed", k)
		}
		k++
	})
	if allocs != 0 {
		t.Fatalf("skip-list Delete allocates %v objects per op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() { l.Delete(nil, -1) }); allocs != 0 {
		t.Fatalf("skip-list Delete(miss) allocates %v objects per op, want 0", allocs)
	}
}

// TestAllocsSkipListInsert: a tower is one object whatever its height, so
// with the height rigged to 1, 2, 5 and 12 a successful insert allocates
// exactly once (a node per level would cost the height).
func TestAllocsSkipListInsert(t *testing.T) {
	for _, height := range []int{1, 2, 5, 12} {
		l := rigged(allHeight(height))
		for k := 0; k < 64; k++ {
			l.Insert(nil, k, k)
		}
		if n := l.Search(nil, 17); n.Height() != height || l.Heights()[height-1] != 64 {
			t.Fatalf("rigged height %d: towers are %d high, linked %v", height, n.Height(), l.Heights())
		}
		if allocs := testing.AllocsPerRun(200, func() { l.Insert(nil, 17, 17) }); allocs != 0 {
			t.Fatalf("height %d: skip-list Insert(duplicate) allocates %v objects per op, want 0", height, allocs)
		}
		if allocs := testing.AllocsPerRun(200, func() {
			l.Insert(nil, 1000, 1000)
			l.Delete(nil, 1000)
		}); allocs != 1 {
			t.Fatalf("height %d: skip-list Insert+Delete pair allocates %v objects, want exactly 1 (the tower)", height, allocs)
		}
	}
}

// TestAllocsSkipListInsertRetry is the skip-list twin of
// TestAllocsListInsertRetry: a forced level-1 C&S failure per insert must
// not allocate beyond the tower.
func TestAllocsSkipListInsertRetry(t *testing.T) {
	l := rigged(allHeight(1))
	const runs = 200
	for k := 0; k <= 2*(runs+2); k += 2 {
		l.Insert(nil, k, k)
	}
	i := 0
	fired := false
	retried := &OpStats{}
	p := &Proc{Stats: retried, Hooks: instrument.HookFunc(func(pt Point, pid int) {
		if pt == PtBeforeInsertCAS && !fired {
			fired = true
			if _, ok := l.Delete(nil, 2*i+2); !ok {
				t.Errorf("hook delete of key %d failed", 2*i+2)
			}
		}
	})}
	allocs := testing.AllocsPerRun(runs, func() {
		fired = false
		if _, ok := l.Insert(p, 2*i+1, 0); !ok {
			t.Fatalf("insert of fresh key %d failed", 2*i+1)
		}
		i++
	})
	if allocs != 1 {
		t.Fatalf("contended skip-list Insert allocates %v objects per op, want exactly 1 (the tower)", allocs)
	}
	if retried.CASAttempts <= retried.CASSuccesses {
		t.Fatalf("schedule did not force failed C&S attempts: %+v", retried)
	}
}

// BenchmarkAllocs* report allocs/op for the benchstat gate
// (scripts/benchdiff.sh) alongside the AllocsPerRun hard assertions above.

func BenchmarkAllocsListGet(b *testing.B) {
	l := NewList[int, int]()
	for k := 0; k < 1024; k++ {
		l.Insert(nil, k, k)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Search(nil, (i*7919)%1024)
	}
}

func BenchmarkAllocsListInsertDelete(b *testing.B) {
	l := NewList[int, int]()
	l.Insert(nil, 0, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Insert(nil, 1, 1)
		l.Delete(nil, 1)
	}
}

func BenchmarkAllocsSkipListGet(b *testing.B) {
	l := NewSkipList[int, int]()
	for k := 0; k < 1024; k++ {
		l.Insert(nil, k, k)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Search(nil, (i*7919)%1024)
	}
}

func BenchmarkAllocsSkipListInsertDelete(b *testing.B) {
	l := NewSkipList[int, int]()
	l.Insert(nil, 0, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Insert(nil, 1, 1)
		l.Delete(nil, 1)
	}
}

// The finger and batch paths inherit the zero-allocation contract: Get
// and Delete through a finger allocate nothing, batch Get/Delete allocate
// nothing, and a batch insert allocates exactly its nodes - the threading
// finger lives on the caller's stack.

func TestAllocsListFinger(t *testing.T) {
	l := NewList[int, int]()
	const runs = 400
	for k := 0; k < runs+2; k++ {
		l.Insert(nil, k, k)
	}
	f := l.NewFinger()
	k := 0
	allocs := testing.AllocsPerRun(runs, func() {
		l2 := k % (runs + 2)
		f.Get(nil, l2)
		f.Search(nil, (l2+1)%(runs+2))
		k++
	})
	if allocs != 0 {
		t.Fatalf("finger Get/Search allocate %v objects per op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() { f.Insert(nil, 17, 17) }); allocs != 0 {
		t.Fatalf("finger Insert(duplicate) allocates %v objects per op, want 0", allocs)
	}
	k = 0
	allocs = testing.AllocsPerRun(runs, func() {
		if _, ok := f.Delete(nil, k); !ok {
			t.Fatalf("finger delete of present key %d failed", k)
		}
		k++
	})
	if allocs != 0 {
		t.Fatalf("finger Delete allocates %v objects per op, want 0", allocs)
	}
}

func TestAllocsSkipListFinger(t *testing.T) {
	l := rigged(allHeight(1))
	const runs = 400
	for k := 0; k < runs+2; k++ {
		l.Insert(nil, k, k)
	}
	f := l.NewFinger()
	k := 0
	allocs := testing.AllocsPerRun(runs, func() {
		f.Get(nil, k%(runs+2))
		k++
	})
	if allocs != 0 {
		t.Fatalf("skip finger Get allocates %v objects per op, want 0", allocs)
	}
	k = 0
	allocs = testing.AllocsPerRun(runs, func() {
		if _, ok := f.Delete(nil, k); !ok {
			t.Fatalf("skip finger delete of present key %d failed", k)
		}
		k++
	})
	if allocs != 0 {
		t.Fatalf("skip finger Delete allocates %v objects per op, want 0", allocs)
	}
}

func TestAllocsListBatch(t *testing.T) {
	l := NewList[int, int]()
	for k := 0; k < 256; k++ {
		l.Insert(nil, k, k)
	}
	keys := make([]int, 16)
	vals := make([]int, 16)
	found := make([]bool, 16)
	allocs := testing.AllocsPerRun(300, func() {
		for i := range keys {
			keys[i] = (i * 37) % 256
		}
		l.GetBatch(nil, keys, vals, found)
	})
	if allocs != 0 {
		t.Fatalf("GetBatch allocates %v objects per batch, want 0", allocs)
	}
	// Insert+Delete of B fresh keys allocates exactly B nodes: the
	// sorting, the finger, and the result bookkeeping add nothing.
	items := make([]KV[int, int], 16)
	allocs = testing.AllocsPerRun(300, func() {
		for i := range items {
			items[i] = KV[int, int]{Key: 1000 + i, Value: i}
			keys[i] = 1000 + i
		}
		if n := l.InsertBatch(nil, items, nil); n != len(items) {
			t.Fatalf("InsertBatch = %d, want %d", n, len(items))
		}
		if n := l.DeleteBatch(nil, keys, nil); n != len(keys) {
			t.Fatalf("DeleteBatch = %d, want %d", n, len(keys))
		}
	})
	if allocs != float64(len(items)) {
		t.Fatalf("InsertBatch+DeleteBatch allocate %v objects per batch, want exactly %d (the nodes)",
			allocs, len(items))
	}
}

func TestAllocsSkipListBatch(t *testing.T) {
	l := rigged(allHeight(1))
	for k := 0; k < 256; k++ {
		l.Insert(nil, k, k)
	}
	keys := make([]int, 16)
	allocs := testing.AllocsPerRun(300, func() {
		for i := range keys {
			keys[i] = (i * 37) % 256
		}
		l.GetBatch(nil, keys, nil, nil)
	})
	if allocs != 0 {
		t.Fatalf("skip-list GetBatch allocates %v objects per batch, want 0", allocs)
	}
	vals, found := make([]int, len(keys)), make([]bool, len(keys))
	if allocs := testing.AllocsPerRun(300, func() {
		for i := range keys {
			keys[i] = (i * 37) % 256
		}
		l.GetBatch(nil, keys, vals, found)
	}); allocs != 0 {
		t.Fatalf("skip-list GetBatch with result slices allocates %v objects per batch, want 0", allocs)
	}
	items := make([]KV[int, int], 16)
	allocs = testing.AllocsPerRun(300, func() {
		for i := range items {
			items[i] = KV[int, int]{Key: 1000 + i, Value: i}
			keys[i] = 1000 + i
		}
		if n := l.InsertBatch(nil, items, nil); n != len(items) {
			t.Fatalf("InsertBatch = %d, want %d", n, len(items))
		}
		if n := l.DeleteBatch(nil, keys, nil); n != len(keys) {
			t.Fatalf("DeleteBatch = %d, want %d", n, len(keys))
		}
	})
	if allocs != float64(len(items)) {
		t.Fatalf("skip-list InsertBatch+DeleteBatch allocate %v objects per batch, want exactly %d",
			allocs, len(items))
	}
}

func BenchmarkAllocsListFingerGet(b *testing.B) {
	l := NewList[int, int]()
	for k := 0; k < 1024; k++ {
		l.Insert(nil, k, k)
	}
	f := l.NewFinger()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Get(nil, i%1024)
	}
}

func BenchmarkAllocsSkipListFingerGet(b *testing.B) {
	l := NewSkipList[int, int]()
	for k := 0; k < 1024; k++ {
		l.Insert(nil, k, k)
	}
	f := l.NewFinger()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Get(nil, i%1024)
	}
}

func BenchmarkAllocsSkipListBatchGet(b *testing.B) {
	l := NewSkipList[int, int]()
	for k := 0; k < 1024; k++ {
		l.Insert(nil, k, k)
	}
	keys := make([]int, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range keys {
			keys[j] = (i + j) % 1024
		}
		l.GetBatch(nil, keys, nil, nil)
	}
}

// TestAllocsSkipListRecorded pins the telemetry seam at the setting
// lflserver runs - a recorder sampling every operation: every operation
// the op scope records, plain or through a finger, allocates nothing,
// because the sampled operation's Proc and scratch counters come from one
// pool.
func TestAllocsSkipListRecorded(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool puts at random, so pooled scratch reallocates")
	}
	l := rigged(allHeight(1))
	rec := telemetry.NewRecorder(1)
	rec.SetSampleEvery(1)
	l.SetTelemetry(rec)
	for k := 0; k < 256; k++ {
		l.Insert(nil, k, k)
	}
	k := 0
	if allocs := testing.AllocsPerRun(500, func() {
		l.Get(nil, k%256)
		l.Delete(nil, 1000+k) // absent
		k++
	}); allocs != 0 {
		t.Fatalf("recorded Get+Delete allocate %v objects per pair, want 0", allocs)
	}
	keys := make([]int, 16)
	if allocs := testing.AllocsPerRun(300, func() {
		for i := range keys {
			keys[i] = (i * 37) % 256
		}
		l.GetBatch(nil, keys, nil, nil)
	}); allocs != 0 {
		t.Fatalf("recorded GetBatch allocates %v objects per 16-key batch, want 0", allocs)
	}
	// Every other operation the op scope records.
	f := l.NewFinger()
	visit := func(_, _ int) bool { return true }
	for _, c := range []struct {
		name string
		op   func()
	}{
		{"duplicate Insert", func() { l.Insert(nil, k%256, k) }},
		{"finger Get", func() { f.Get(nil, k%256) }},
		{"finger absent Delete", func() { f.Delete(nil, 1000+k) }},
		{"finger duplicate Insert", func() { f.Insert(nil, k%256, k) }},
		{"AscendRange", func() { l.AscendRange(nil, k%256, k%256+8, visit) }},
	} {
		if allocs := testing.AllocsPerRun(300, func() { c.op(); k++ }); allocs != 0 {
			t.Errorf("recorded %s allocates %v objects per op, want 0", c.name, allocs)
		}
	}
	if got := rec.Snapshot().TotalOps(); got == 0 {
		t.Fatal("recorder saw no operations: the pin measured the unrecorded path")
	}
}

// TestAllocsGetBatchAcross pins the shared descent where the sharded map
// runs it - several lists in one group, every group recorded, result
// slices present or nil: the segment and pin arrays stay on the stack.
func TestAllocsGetBatchAcross(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool puts at random, so pooled scratch reallocates")
	}
	lists, cutsOf := rangedLists(4, 256)
	rec := telemetry.NewRecorder(1)
	rec.SetSampleEvery(1)
	for _, l := range lists {
		l.SetTelemetry(rec)
	}
	keys := make([]int, 40) // three groups, the middle ones across two lists
	for i := range keys {
		keys[i] = 2 * 13 * i
	}
	cuts := cutsOf(keys)
	vals, found := make([]int, len(keys)), make([]bool, len(keys))
	before := rec.Snapshot().Ops[telemetry.OpGet].Count
	if allocs := testing.AllocsPerRun(300, func() {
		if GetBatchAcross(nil, lists, cuts, keys, vals, found) != len(keys) || GetBatchAcross(nil, lists, cuts, keys, nil, nil) != len(keys) {
			t.Fatal("a key went missing")
		}
	}); allocs != 0 {
		t.Fatalf("recorded GetBatchAcross allocates %v objects per pair of 40-key batches, want 0", allocs)
	}
	if got := rec.Snapshot().Ops[telemetry.OpGet].Count - before; got != 301*2*uint64(len(keys)) {
		t.Fatalf("recorder counted %d gets, want %d", got, 301*2*len(keys))
	}
}
