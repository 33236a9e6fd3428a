package adversary

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/instrument"
)

// These schedules pin a delayed C&S across a full delete -> retire ->
// recycle -> re-insert cycle with EBR-backed node recycling enabled
// (internal/core/recycle.go). The property under test is the one DESIGN.md
// §2.1 re-proves for recycling: a node's memory is never reused while any
// operation from its retirement epoch is still pinned, so the interned-
// record ABA argument (identity ≡ structure) survives physical reuse. Run
// under -race via scripts/check.sh.

// retireRecorder collects retired node pointers; a mutex keeps it sound
// when a released helper fires the hook from another goroutine.
type retireRecorder struct {
	mu   sync.Mutex
	seen map[any]bool
}

func newRetireRecorder() *retireRecorder { return &retireRecorder{seen: map[any]bool{}} }

func (r *retireRecorder) hook(n any) {
	r.mu.Lock()
	r.seen[n] = true
	r.mu.Unlock()
}

func (r *retireRecorder) has(n any) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seen[n]
}

// reclaim pushes the domain hard enough to drain anything drainable.
func reclaim[L interface{ ForceReclaim(*core.Proc) }](l L) {
	for i := 0; i < 6; i++ {
		l.ForceReclaim(nil)
	}
}

// TestRecycleDelayedInsertCAS: pid 1 is frozen before its insert C&S; a
// full insert(25)+delete(25) cycle retires a node while pid 1's pin is
// held. The node must NOT be recycled while pid 1 is parked (its epoch is
// pinned); once pid 1 completes and the domain quiesces, the SAME pointer
// must come back from the free list and serve a fresh insert correctly.
func TestRecycleDelayedInsertCAS(t *testing.T) {
	l := core.NewList[int, int]()
	l.EnableRecycling()
	rec := newRetireRecorder()
	l.SetRetireHook(rec.hook)
	l.Insert(nil, 10, 10)
	l.Insert(nil, 30, 30)

	ctl := NewController()
	ctl.PauseAt(1, instrument.PtBeforeInsertCAS)
	p, st := abaStats(ctl, 1)
	done := make(chan bool, 1)
	go func() { _, ok := l.Insert(p, 20, 20); done <- ok }()
	ctl.AwaitParked(1, instrument.PtBeforeInsertCAS)

	// The interfering cycle retires node 25 inside pid 1's pinned window.
	n25, ok := l.Insert(nil, 25, 25)
	if !ok {
		t.Fatal("interfering insert failed")
	}
	if _, ok := l.Delete(nil, 25); !ok {
		t.Fatal("interfering delete failed")
	}
	if !rec.has(n25) {
		t.Fatal("retire hook did not see the deleted node")
	}
	reclaim(l)
	if recycled, _ := l.RecycleCounts(); recycled != 0 {
		t.Fatalf("recycled %d nodes while an operation from the retirement epoch was parked", recycled)
	}

	ctl.ClearAllPauses()
	ctl.Release(1)
	if ok := <-done; !ok {
		t.Fatal("frozen insert reported failure")
	}
	// True ABA: the interning argument is unchanged by recycling — the
	// delayed C&S still succeeds first try (the cycle restored the
	// pointer-identical record).
	if st.CASAttempts != 1 || st.CASSuccesses != 1 {
		t.Fatalf("delayed insert C&S should succeed first try: %+v", st)
	}

	// pid 1 is unpinned; the domain quiesces and n25's memory recycles.
	reclaim(l)
	if recycled, _ := l.RecycleCounts(); recycled != 1 {
		t.Fatalf("recycled = %d after quiescence, want 1", recycled)
	}
	n40, ok := l.Insert(nil, 40, 40)
	if !ok {
		t.Fatal("post-quiescence insert failed")
	}
	if n40 != n25 {
		t.Fatalf("insert allocated fresh memory (%p) instead of recycling the retired node (%p)", n40, n25)
	}
	for _, k := range []int{10, 20, 30, 40} {
		if v, ok := l.Get(nil, k); !ok || v != k {
			t.Fatalf("Get(%d) = %v, %v", k, v, ok)
		}
	}
	if _, ok := l.Get(nil, 25); ok {
		t.Fatal("deleted key 25 present")
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestRecycleDelayedFlagCAS: pid 1 freezes before flagging 30's
// predecessor; the main goroutine deletes 30 and re-inserts an equal key.
// While pid 1 is parked, the retired node must not be recycled — the
// re-inserted 30 must be fresh memory, so pid 1's re-search sees a node it
// never targeted and its delete correctly fails. After pid 1 completes,
// the old node recycles and serves the next insert.
func TestRecycleDelayedFlagCAS(t *testing.T) {
	l := core.NewList[int, int]()
	l.EnableRecycling()
	rec := newRetireRecorder()
	l.SetRetireHook(rec.hook)
	l.Insert(nil, 10, 10)
	old, _ := l.Insert(nil, 30, 30)

	ctl := NewController()
	ctl.PauseAt(1, instrument.PtBeforeFlagCAS)
	p, _ := abaStats(ctl, 1)
	done := make(chan bool, 1)
	go func() { _, ok := l.Delete(p, 30); done <- ok }()
	ctl.AwaitParked(1, instrument.PtBeforeFlagCAS)

	if _, ok := l.Delete(nil, 30); !ok {
		t.Fatal("interfering delete failed")
	}
	if !rec.has(old) {
		t.Fatal("retire hook did not see the deleted node")
	}
	reclaim(l)
	renew, ok := l.Insert(nil, 30, 999)
	if !ok {
		t.Fatal("re-insert of equal key failed")
	}
	if renew == old {
		t.Fatal("re-insert reused the retired node while an operation from its epoch was parked")
	}
	if recycled, _ := l.RecycleCounts(); recycled != 0 {
		t.Fatalf("recycled %d nodes while pid 1 was parked", recycled)
	}

	ctl.ClearAllPauses()
	ctl.Release(1)
	if ok := <-done; ok {
		t.Fatal("frozen delete succeeded against a re-inserted node it never targeted")
	}
	if v, ok := l.Get(nil, 30); !ok || v != 999 {
		t.Fatalf("re-inserted key 30 = (%d, %t), want (999, true)", v, ok)
	}

	reclaim(l)
	if recycled, _ := l.RecycleCounts(); recycled != 1 {
		t.Fatalf("recycled = %d after quiescence, want 1", recycled)
	}
	n50, ok := l.Insert(nil, 50, 50)
	if !ok {
		t.Fatal("post-quiescence insert failed")
	}
	if n50 != old {
		t.Fatalf("insert allocated fresh memory (%p) instead of recycling the retired node (%p)", n50, old)
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestRecycleDelayedSkipListTower: a parked skip-list inserter has
// traversed every level of key 20's height-4 tower when the main goroutine
// deletes the tower. The tower is one object: it must retire once, after
// its LAST level is unlinked - the root goes first - and stay parked until
// the inserter unpins; then it recycles and comes back as a fresh
// equal-height tower with zero allocations.
func TestRecycleDelayedSkipListTower(t *testing.T) {
	l := rigged(allHeight(4), core.WithRecycling())
	l.Insert(nil, 10, 10)
	l.Insert(nil, 20, 20)
	l.Insert(nil, 30, 30)

	ctl := NewController()
	ctl.PauseAt(1, instrument.PtBeforeInsertCAS)
	p, _ := abaStats(ctl, 1)
	done := make(chan bool, 1)
	go func() { _, ok := l.Insert(p, 25, 25); done <- ok }()
	ctl.AwaitParked(1, instrument.PtBeforeInsertCAS)

	// Delete the tower the parked search walked through. It retires at
	// its fourth unlink, stamped inside pid 1's pinned window.
	if _, ok := l.Delete(nil, 20); !ok {
		t.Fatal("interfering delete failed")
	}
	reclaim(l)
	if recycled, _ := l.RecycleCounts(); recycled != 0 {
		t.Fatalf("recycled %d towers while the parked inserter could still hold one", recycled)
	}
	if pending := l.RetirePending(); pending != 1 {
		t.Fatalf("RetirePending = %d, want the one tower parked in a retire list", pending)
	}

	ctl.ClearAllPauses()
	ctl.Release(1)
	if ok := <-done; !ok {
		t.Fatal("frozen insert reported failure")
	}

	reclaim(l)
	if recycled, dropped := l.RecycleCounts(); recycled != 1 || dropped != 0 {
		t.Fatalf("recycled %d, dropped %d after quiescence, want the tower recycled", recycled, dropped)
	}
	// The rebuilt tower comes from the free list, all four levels of it.
	st := &core.OpStats{}
	if _, ok := l.Insert(&core.Proc{Stats: st}, 40, 40); !ok {
		t.Fatal("post-quiescence insert failed")
	}
	if st.FreelistHits != 1 || st.FreelistMisses != 0 {
		t.Fatalf("tower rebuild: %d hits / %d misses, want 1 / 0", st.FreelistHits, st.FreelistMisses)
	}
	for _, k := range []int{10, 25, 30, 40} {
		if _, ok := l.Get(nil, k); !ok {
			t.Fatalf("key %d missing", k)
		}
	}
	if _, ok := l.Get(nil, 20); ok {
		t.Fatal("deleted key 20 present")
	}
	if err := l.CheckStructure(); err != nil {
		t.Fatal(err)
	}
}
