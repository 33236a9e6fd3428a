package core

import (
	"sync"
	"testing"
)

// Tests for EBR-backed node recycling (recycle.go): the zero-allocation
// steady-state contract, the epoch-stall bound, tower-atomic retirement,
// and identity reuse under churn. The adversary-schedule tests that pin a
// delayed C&S across delete→retire→recycle→re-insert live in
// internal/adversary.

// churnWarmup drives an insert-after-delete loop long enough to populate
// the free list, then drains every pending retiree so the measurement
// starts with a stocked pool.
func churnWarmup(ins func(k int), del func(k int), reclaim func()) {
	const span = 32
	for i := 0; i < 4096; i++ {
		ins(i % span)
		del(i % span)
	}
	for i := 0; i < 6; i++ {
		reclaim()
	}
}

func TestRecycleListChurnZeroAlloc(t *testing.T) {
	l := NewList[int, int]()
	l.EnableRecycling()
	churnWarmup(
		func(k int) { l.Insert(nil, k, k) },
		func(k int) { l.Delete(nil, k) },
		func() { l.ForceReclaim(nil) },
	)
	k := 0
	allocs := testing.AllocsPerRun(400, func() {
		if _, ok := l.Insert(nil, k%32, k); !ok {
			t.Fatalf("insert of absent key %d failed", k%32)
		}
		if _, ok := l.Delete(nil, k%32); !ok {
			t.Fatalf("delete of present key %d failed", k%32)
		}
		k++
	})
	if allocs != 0 {
		t.Fatalf("steady-state insert-after-delete allocates %v objects per op with recycling, want 0", allocs)
	}
	recycled, _ := l.RecycleCounts()
	if recycled == 0 {
		t.Fatal("churn finished with zero recycled nodes")
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatalf("invariants after churn: %v", err)
	}
}

func TestRecycleSkipListChurnZeroAlloc(t *testing.T) {
	l := NewSkipList[int, int](WithRecycling())
	churnWarmup(
		func(k int) { l.Insert(nil, k, k) },
		func(k int) { l.Delete(nil, k) },
		func() { l.ForceReclaim(nil) },
	)
	k := 0
	allocs := testing.AllocsPerRun(400, func() {
		if _, ok := l.Insert(nil, k%32, k); !ok {
			t.Fatalf("insert of absent key %d failed", k%32)
		}
		if _, ok := l.Delete(nil, k%32); !ok {
			t.Fatalf("delete of present key %d failed", k%32)
		}
		k++
	})
	if allocs != 0 {
		t.Fatalf("steady-state skip-list churn allocates %v objects per op with recycling, want 0 (towers included)", allocs)
	}
	recycled, _ := l.RecycleCounts()
	if recycled == 0 {
		t.Fatal("churn finished with zero recycled nodes")
	}
	if err := l.CheckStructure(); err != nil {
		t.Fatalf("structure after churn: %v", err)
	}
}

// TestRecycleListReusesNodes pins the identity claim, not just the alloc
// count: a node retired through the domain comes back from the free list
// as the same pointer, with its interned successor records intact.
func TestRecycleListReusesNodes(t *testing.T) {
	l := NewList[int, int]()
	l.EnableRecycling()
	retired := map[*SLNode[int, int]]bool{}
	l.SetRetireHook(func(n any) { retired[n.(*SLNode[int, int])] = true })

	st := &OpStats{}
	p := &Proc{Stats: st}
	for i := 0; i < 512; i++ {
		l.Insert(p, i%8, i)
		l.Delete(p, i%8)
	}
	for i := 0; i < 6; i++ {
		l.ForceReclaim(p)
	}

	// Everything pending has drained; the next inserts must be served from
	// the free list, i.e. return pointers we saw retire.
	reused := 0
	for i := 0; i < 8; i++ {
		n, ok := l.Insert(p, i, i)
		if !ok {
			t.Fatalf("insert of absent key %d failed", i)
		}
		if retired[n] {
			reused++
		}
	}
	if reused == 0 {
		t.Fatalf("no insert returned a previously retired node (retired set: %d, freelist hits: %d)",
			len(retired), st.FreelistHits)
	}
	if st.FreelistHits == 0 || st.NodesRecycled == 0 || st.EpochAdvances == 0 {
		t.Fatalf("telemetry did not move: %+v", st)
	}
	for i := 0; i < 8; i++ {
		if v, ok := l.Get(p, i); !ok || v != i {
			t.Fatalf("Get(%d) = %v, %v after reuse", i, v, ok)
		}
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatalf("invariants after reuse: %v", err)
	}
}

// TestRecycleSkipListTowerAtomic: a deleted tower retires as ONE object,
// after the last of its levels is unlinked and not before, and that object
// is what the next insert of the same height gets back.
func TestRecycleSkipListTowerAtomic(t *testing.T) {
	const height = 4
	// Constant rng with three low bits set → every tower is height 4.
	l := rigged(allHeight(4), WithRecycling())
	st := &OpStats{}
	p := &Proc{Stats: st}

	tower, ok := l.Insert(p, 1, 10)
	if !ok {
		t.Fatal("insert failed")
	}
	if got := tower.towerLive.Load(); got != height {
		t.Fatalf("live count of a linked height-%d tower = %d", height, got)
	}
	if got := l.Heights()[height-1]; got != 1 {
		t.Fatalf("height histogram %v, want one height-%d tower (rng contract changed?)", l.Heights(), height)
	}
	if _, ok := l.Delete(p, 1); !ok {
		t.Fatal("delete failed")
	}
	// The tower is fully unlinked (single goroutine: Delete sweeps every
	// level): the last of the four unlinks retired the one object.
	if got := l.RetirePending(); got != 1 {
		t.Fatalf("RetirePending = %d after tower delete, want 1 (a tower is one object)", got)
	}
	for i := 0; i < 6; i++ {
		l.ForceReclaim(p)
	}
	recycled, dropped := l.RecycleCounts()
	if recycled != 1 || dropped != 0 {
		t.Fatalf("recycled %d, dropped %d, want the tower recycled", recycled, dropped)
	}
	// Rebuilding an equal tower is now allocation-free: the same object,
	// every cell reset.
	hits := st.FreelistHits
	again, ok := l.Insert(p, 2, 20)
	if !ok {
		t.Fatal("re-insert failed")
	}
	if st.FreelistHits-hits != 1 || again != tower {
		t.Fatalf("re-insert hit the free list %d times and got %p, want 1 hit returning %p", st.FreelistHits-hits, again, tower)
	}
	for lv := 1; lv <= height; lv++ {
		if c := again.cell(lv); c.loadSucc() != clean(l.tail) || c.backlink.Load() != nil {
			t.Fatalf("level %d of the reused tower carries state from its previous life", lv)
		}
	}
	if v, ok := l.Get(p, 2); !ok || v != 20 {
		t.Fatalf("Get after recycled rebuild = %v, %v", v, ok)
	}
	if err := l.CheckStructure(); err != nil {
		t.Fatalf("structure: %v", err)
	}
}

// TestRecycleStallBoundCore is satellite 3 at the structure level: a
// caller-held pin that never releases must bound retire-list growth (cap +
// ebr_stalled_epochs), and releasing it drains everything.
func TestRecycleStallBoundCore(t *testing.T) {
	l := NewList[int, int]()
	l.EnableRecycling()
	st := &OpStats{}
	p := &Proc{Stats: st}

	pin := l.PinEpoch() // the stalled reader; never Unpinned during churn
	const churn = 8192
	for i := 0; i < churn; i++ {
		l.Insert(p, i%16, i)
		l.Delete(p, i%16)
	}
	// One goroutine retires onto one stripe: 3 epoch slots × the per-slot
	// cap (1024) bounds what a stalled epoch can retain there.
	const bound = 3 * 1024
	if got := l.RetirePending(); got > bound {
		t.Fatalf("stalled epoch retained %d retirees, want <= %d", got, bound)
	}
	if _, dropped := l.RecycleCounts(); dropped == 0 {
		t.Fatal("no retirees dropped to the GC despite the stalled epoch")
	}
	if st.StalledEpochs == 0 {
		t.Fatal("ebr_stalled_epochs counter did not move")
	}

	pin.Unpin()
	for i := 0; i < 6; i++ {
		l.ForceReclaim(p)
	}
	if got := l.RetirePending(); got != 0 {
		t.Fatalf("RetirePending = %d after the stall cleared", got)
	}
	if recycled, _ := l.RecycleCounts(); recycled == 0 {
		t.Fatal("nothing recycled after the stall cleared")
	}
}

// TestRecyclePinnedProcFastPath: installing a caller-held pin in
// Proc.Epoch must keep operations correct (the per-op pin/unpin is
// skipped, not the protection).
func TestRecyclePinnedProcFastPath(t *testing.T) {
	l := NewList[int, int]()
	l.EnableRecycling()
	p := &Proc{}
	pin := l.PinEpoch()
	p.Epoch = pin
	for i := 0; i < 256; i++ {
		l.Insert(p, i%16, i)
		l.Delete(p, i%16)
	}
	p.Epoch = nil
	pin.Unpin()
	for i := 0; i < 6; i++ {
		l.ForceReclaim(p)
	}
	if got := l.RetirePending(); got != 0 {
		t.Fatalf("RetirePending = %d after unpin", got)
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
}

// TestRecycleFingerLifetimePin: a finger holds its pin until Reset, so
// reclamation stalls while the finger is warm and resumes after Reset.
func TestRecycleFingerLifetimePin(t *testing.T) {
	l := NewList[int, int]()
	l.EnableRecycling()
	for i := 0; i < 64; i++ {
		l.Insert(nil, i, i)
	}
	f := l.NewFinger()
	if v, ok := f.Get(nil, 7); !ok || v != 7 {
		t.Fatalf("finger Get = %v, %v", v, ok)
	}
	// Churn while the finger is warm: its pin pins the epoch, so pending
	// retirees must not recycle.
	for i := 0; i < 512; i++ {
		l.Insert(nil, 100+i%8, i)
		l.Delete(nil, 100+i%8)
	}
	for i := 0; i < 6; i++ {
		l.ForceReclaim(nil)
	}
	if recycled, _ := l.RecycleCounts(); recycled != 0 {
		t.Fatalf("recycled %d nodes while a finger held its lifetime pin", recycled)
	}
	f.Reset()
	for i := 0; i < 6; i++ {
		l.ForceReclaim(nil)
	}
	if recycled, _ := l.RecycleCounts(); recycled == 0 {
		t.Fatal("nothing recycled after the finger released its pin")
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
}

// Concurrent churn under recycling; the -race rounds in scripts/check.sh
// lean on these two for the delete→retire→recycle→re-insert interleavings
// the scheduler finds on its own.

func TestRecycleListConcurrentChurn(t *testing.T) {
	l := NewList[int, int]()
	l.EnableRecycling()
	const workers = 8
	const perWorker = 4000
	const span = 64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := &Proc{Stats: &OpStats{}, ID: w}
			for i := 0; i < perWorker; i++ {
				k := (w*31 + i) % span
				switch i % 4 {
				case 0, 1:
					l.Insert(p, k, i)
				case 2:
					l.Delete(p, k)
				default:
					l.Get(p, k)
				}
			}
		}(w)
	}
	wg.Wait()
	for i := 0; i < 6; i++ {
		l.ForceReclaim(nil)
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatalf("invariants after concurrent recycled churn: %v", err)
	}
	recycled, dropped := l.RecycleCounts()
	if recycled == 0 {
		t.Fatalf("concurrent churn recycled nothing (dropped %d)", dropped)
	}
}

func TestRecycleSkipListConcurrentChurn(t *testing.T) {
	l := NewSkipList[int, int](WithRecycling())
	const workers = 8
	const perWorker = 4000
	const span = 64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := &Proc{Stats: &OpStats{}, ID: w}
			for i := 0; i < perWorker; i++ {
				k := (w*31 + i) % span
				switch i % 4 {
				case 0, 1:
					l.Insert(p, k, i)
				case 2:
					l.Delete(p, k)
				default:
					l.Get(p, k)
				}
			}
		}(w)
	}
	wg.Wait()
	for i := 0; i < 6; i++ {
		l.ForceReclaim(nil)
	}
	if err := l.CheckStructure(); err != nil {
		t.Fatalf("structure after concurrent recycled churn: %v", err)
	}
	recycled, dropped := l.RecycleCounts()
	if recycled == 0 {
		t.Fatalf("concurrent churn recycled nothing (dropped %d)", dropped)
	}
}

// The churn benchmark pairs report allocs/op for the benchdiff gate:
// the Recycle rows must show 0 allocs/op, the NoRecycle rows show the
// per-op node cost they replace.

func BenchmarkAllocsListChurnNoRecycle(b *testing.B) {
	l := NewList[int, int]()
	l.Insert(nil, 0, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Insert(nil, 1, i)
		l.Delete(nil, 1)
	}
}

func BenchmarkAllocsListChurnRecycle(b *testing.B) {
	l := NewList[int, int]()
	l.EnableRecycling()
	churnWarmup(
		func(k int) { l.Insert(nil, k, k) },
		func(k int) { l.Delete(nil, k) },
		func() { l.ForceReclaim(nil) },
	)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Insert(nil, 1, i)
		l.Delete(nil, 1)
	}
}

func BenchmarkAllocsSkipListChurnNoRecycle(b *testing.B) {
	l := NewSkipList[int, int]()
	l.Insert(nil, 0, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Insert(nil, 1, i)
		l.Delete(nil, 1)
	}
}

func BenchmarkAllocsSkipListChurnRecycle(b *testing.B) {
	l := NewSkipList[int, int](WithRecycling())
	churnWarmup(
		func(k int) { l.Insert(nil, k, k) },
		func(k int) { l.Delete(nil, k) },
		func() { l.ForceReclaim(nil) },
	)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Insert(nil, 1, i)
		l.Delete(nil, 1)
	}
}
