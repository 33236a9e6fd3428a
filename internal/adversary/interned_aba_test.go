package adversary

import (
	"testing"

	"repro/internal/core"
	"repro/internal/instrument"
)

// These schedules exercise the ABA cases opened by interning successor
// records (internal/core/node.go): a C&S that was read-before and
// performed-after a whole insert+delete cycle now *succeeds*, because the
// field holds the pointer-identical interned record again - exactly the
// semantics of the paper's tagged successor word. Each test freezes one
// process right before its C&S, runs the interfering operations to
// completion, releases the frozen process, and checks the final state and
// invariants. DESIGN.md §2.1 states the invariant that makes these
// schedules safe; run under -race via scripts/check.sh.

// abaStats returns a Proc parked by ctl with exact step counters attached,
// so tests can assert whether the delayed C&S succeeded without a retry.
func abaStats(ctl *Controller, pid int) (*core.Proc, *core.OpStats) {
	st := &core.OpStats{}
	return &core.Proc{ID: pid, Hooks: ctl.HooksFor(), Stats: st}, st
}

// TestInternedABAInsertCAS: the frozen inserter's C&S expects 10's clean
// record pointing at 30; a full insert(25)+delete(25) cycle runs while it
// is parked, restoring the identical record. The released C&S must succeed
// on the first attempt (structural-compare semantics) and leave a sorted,
// invariant-satisfying list.
func TestInternedABAInsertCAS(t *testing.T) {
	l := core.NewList[int, int]()
	l.Insert(nil, 10, 10)
	l.Insert(nil, 30, 30)

	ctl := NewController()
	ctl.PauseAt(1, instrument.PtBeforeInsertCAS)
	p, st := abaStats(ctl, 1)
	done := make(chan bool, 1)
	go func() { _, ok := l.Insert(p, 20, 20); done <- ok }()
	ctl.AwaitParked(1, instrument.PtBeforeInsertCAS)

	// ABA cycle around the same predecessor (node 10) while pid 1 holds
	// its expected record: insert and delete a key in the same window.
	if _, ok := l.Insert(nil, 25, 25); !ok {
		t.Fatal("interfering insert failed")
	}
	if _, ok := l.Delete(nil, 25); !ok {
		t.Fatal("interfering delete failed")
	}

	ctl.ClearAllPauses()
	ctl.Release(1)
	if ok := <-done; !ok {
		t.Fatal("frozen insert reported failure")
	}
	if st.CASAttempts != 1 || st.CASSuccesses != 1 {
		t.Fatalf("delayed insert C&S should succeed first try under interning (true ABA): %+v", st)
	}
	for _, k := range []int{10, 20, 30} {
		if _, ok := l.Get(nil, k); !ok {
			t.Fatalf("key %d missing", k)
		}
	}
	if _, ok := l.Get(nil, 25); ok {
		t.Fatal("deleted key 25 present")
	}
	if got := l.Len(); got != 3 {
		t.Fatalf("Len = %d, want 3", got)
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestInternedABAFlagCAS: the frozen deleter of 30 expects 10's clean
// record pointing at 30; an insert(20)+delete(20) cycle restores it while
// the deleter is parked. The released flag C&S succeeds and the deletion
// completes without retries.
func TestInternedABAFlagCAS(t *testing.T) {
	l := core.NewList[int, int]()
	l.Insert(nil, 10, 10)
	l.Insert(nil, 30, 30)

	ctl := NewController()
	ctl.PauseAt(1, instrument.PtBeforeFlagCAS)
	p, st := abaStats(ctl, 1)
	done := make(chan bool, 1)
	go func() { _, ok := l.Delete(p, 30); done <- ok }()
	ctl.AwaitParked(1, instrument.PtBeforeFlagCAS)

	if _, ok := l.Insert(nil, 20, 20); !ok {
		t.Fatal("interfering insert failed")
	}
	if _, ok := l.Delete(nil, 20); !ok {
		t.Fatal("interfering delete failed")
	}

	ctl.ClearAllPauses()
	ctl.Release(1)
	if ok := <-done; !ok {
		t.Fatal("frozen delete reported failure")
	}
	// flag + mark + physical delete, each first-try: 3 attempts.
	if st.CASAttempts != 3 || st.CASSuccesses != 3 {
		t.Fatalf("delayed deletion should complete without retries under interning: %+v", st)
	}
	if _, ok := l.Get(nil, 30); ok {
		t.Fatal("deleted key 30 present")
	}
	if got := l.Len(); got != 1 {
		t.Fatalf("Len = %d, want 1", got)
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestInternedABAReinsertEqualKey: interning is per *node*, not per key.
// A deleter frozen before its flag C&S must NOT be confused by the same
// key being deleted and re-inserted at the same predecessor: the new node
// has its own interned records, so the delayed C&S fails, the re-search
// finds a different node, and the delete correctly reports failure.
func TestInternedABAReinsertEqualKey(t *testing.T) {
	l := core.NewList[int, int]()
	l.Insert(nil, 10, 10)
	l.Insert(nil, 20, 20)
	l.Insert(nil, 30, 30)

	ctl := NewController()
	ctl.PauseAt(1, instrument.PtBeforeFlagCAS)
	p, _ := abaStats(ctl, 1)
	done := make(chan bool, 1)
	go func() { _, ok := l.Delete(p, 20); done <- ok }()
	ctl.AwaitParked(1, instrument.PtBeforeFlagCAS)

	// Unlink the node pid 1 targets, then re-insert an equal key: a new
	// node occupies the same position between 10 and 30.
	if _, ok := l.Delete(nil, 20); !ok {
		t.Fatal("interfering delete failed")
	}
	if _, ok := l.Insert(nil, 20, 999); !ok {
		t.Fatal("re-insert of equal key failed")
	}

	ctl.ClearAllPauses()
	ctl.Release(1)
	if ok := <-done; ok {
		t.Fatal("frozen delete succeeded against a re-inserted node it never targeted")
	}
	if v, ok := l.Get(nil, 20); !ok || v != 999 {
		t.Fatalf("re-inserted key 20 = (%d, %t), want (999, true)", v, ok)
	}
	if got := l.Len(); got != 3 {
		t.Fatalf("Len = %d, want 3", got)
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestInternedABADelayedHelpMarked: a deleter frozen right before its
// physical-deletion C&S is overtaken by a helper (an inserter that runs
// the full flag->mark->unlink help path) and by a subsequent insert that
// reuses the same predecessor. The released C&S must observe the changed
// record and back off - the re-check in helpMarked, not record freshness,
// is what prevents a resurrecting unlink under interning.
func TestInternedABADelayedHelpMarked(t *testing.T) {
	l := core.NewList[int, int]()
	l.Insert(nil, 10, 10)
	l.Insert(nil, 20, 20)
	l.Insert(nil, 30, 30)

	ctl := NewController()
	ctl.PauseAt(1, instrument.PtBeforePhysicalCAS)
	p, _ := abaStats(ctl, 1)
	done := make(chan bool, 1)
	go func() { _, ok := l.Delete(p, 20); done <- ok }()
	ctl.AwaitParked(1, instrument.PtBeforePhysicalCAS)

	// The inserter of 15 finds 10 flagged, helps complete 20's unlink,
	// then installs its node as 10's successor.
	if _, ok := l.Insert(nil, 15, 15); !ok {
		t.Fatal("helping insert failed")
	}

	ctl.ClearAllPauses()
	ctl.Release(1)
	if ok := <-done; !ok {
		t.Fatal("frozen delete reported failure despite owning the flag")
	}
	if _, ok := l.Get(nil, 20); ok {
		t.Fatal("deleted key 20 present")
	}
	if _, ok := l.Get(nil, 15); !ok {
		t.Fatal("key 15 missing after helping insert")
	}
	if got := l.Len(); got != 3 {
		t.Fatalf("Len = %d, want 3 (10, 15, 30)", got)
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestInternedABASkipList runs the insert-C&S and flag-C&S ABA schedules
// on the skip list (height-1 towers so the schedule stays on level 1,
// where the same points fire in insertNode/tryFlagNode).
func TestInternedABASkipList(t *testing.T) {
	newSkip := func() *core.SkipList[int, int] {
		l := rigged(allHeight(1))
		l.Insert(nil, 10, 10)
		l.Insert(nil, 30, 30)
		return l
	}

	t.Run("insert-cas", func(t *testing.T) {
		l := newSkip()
		ctl := NewController()
		ctl.PauseAt(1, instrument.PtBeforeInsertCAS)
		p, st := abaStats(ctl, 1)
		done := make(chan bool, 1)
		go func() { _, ok := l.Insert(p, 20, 20); done <- ok }()
		ctl.AwaitParked(1, instrument.PtBeforeInsertCAS)

		if _, ok := l.Insert(nil, 25, 25); !ok {
			t.Fatal("interfering insert failed")
		}
		if _, ok := l.Delete(nil, 25); !ok {
			t.Fatal("interfering delete failed")
		}

		ctl.ClearAllPauses()
		ctl.Release(1)
		if ok := <-done; !ok {
			t.Fatal("frozen insert reported failure")
		}
		if st.CASAttempts != 1 || st.CASSuccesses != 1 {
			t.Fatalf("delayed skip-list insert C&S should succeed first try: %+v", st)
		}
		for _, k := range []int{10, 20, 30} {
			if _, ok := l.Get(nil, k); !ok {
				t.Fatalf("key %d missing", k)
			}
		}
		if got := l.Len(); got != 3 {
			t.Fatalf("Len = %d, want 3", got)
		}
		if err := l.CheckStructure(); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("flag-cas", func(t *testing.T) {
		l := newSkip()
		ctl := NewController()
		ctl.PauseAt(1, instrument.PtBeforeFlagCAS)
		p, st := abaStats(ctl, 1)
		done := make(chan bool, 1)
		go func() { _, ok := l.Delete(p, 30); done <- ok }()
		ctl.AwaitParked(1, instrument.PtBeforeFlagCAS)

		if _, ok := l.Insert(nil, 20, 20); !ok {
			t.Fatal("interfering insert failed")
		}
		if _, ok := l.Delete(nil, 20); !ok {
			t.Fatal("interfering delete failed")
		}

		ctl.ClearAllPauses()
		ctl.Release(1)
		if ok := <-done; !ok {
			t.Fatal("frozen delete reported failure")
		}
		if st.CASAttempts != 3 || st.CASSuccesses != 3 {
			t.Fatalf("delayed skip-list deletion should complete without retries: %+v", st)
		}
		if _, ok := l.Get(nil, 30); ok {
			t.Fatal("deleted key 30 present")
		}
		if got := l.Len(); got != 1 {
			t.Fatalf("Len = %d, want 1", got)
		}
		if err := l.CheckStructure(); err != nil {
			t.Fatal(err)
		}
	})
}
