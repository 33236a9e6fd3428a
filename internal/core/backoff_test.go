package core

import (
	"testing"

	"repro/internal/instrument"
)

// These tests pin the adaptive-backoff policy: the first backoffAfter
// consecutive C&S failures in one retry loop wait nothing (uncontended and
// single-failure schedules stay wait-free), every further failure waits
// and increments OpStats.BackoffWaits, and the waits allocate nothing.

// forceInsertFailures builds a deterministic single-goroutine schedule
// that makes one list Insert lose its C&S exactly times times: even keys
// 0,2,4,... are pre-inserted, the hook deletes the pending C&S's expected
// successor right before each attempt, so the attempt fails and the retry
// re-searches. Returns the stats of the contended insert.
func forceInsertFailures(t *testing.T, times int) *OpStats {
	t.Helper()
	l := NewList[int, int]()
	for k := 0; k <= 2*(times+2); k += 2 {
		l.Insert(nil, k, k)
	}
	fired := 0
	st := &OpStats{}
	p := &Proc{Stats: st, Hooks: instrument.HookFunc(func(pt Point, pid int) {
		if pt == PtBeforeInsertCAS && fired < times {
			fired++
			// Delete the successor the pending C&S expects; the
			// predecessor's record changes and the C&S must fail.
			if _, ok := l.Delete(nil, 2*fired); !ok {
				t.Errorf("hook delete of key %d failed", 2*fired)
			}
		}
	})}
	if _, ok := l.Insert(p, 1, 1); !ok {
		t.Fatal("contended insert of fresh key failed")
	}
	if got := st.CASAttempts - st.CASSuccesses; got < uint64(times) {
		t.Fatalf("schedule forced %d failed C&S, want >= %d", got, times)
	}
	return st
}

func TestBackoffFreeFailures(t *testing.T) {
	// Uncontended operations and schedules with at most backoffAfter
	// consecutive failures never wait.
	l := NewList[int, int]()
	st := &OpStats{}
	p := &Proc{Stats: st}
	l.Insert(p, 1, 1)
	l.Get(p, 1)
	l.Delete(p, 1)
	if st.BackoffWaits != 0 {
		t.Fatalf("uncontended ops waited %d times, want 0", st.BackoffWaits)
	}
	if st := forceInsertFailures(t, backoffAfter); st.BackoffWaits != 0 {
		t.Fatalf("%d failures waited %d times, want 0 (free failures)", backoffAfter, st.BackoffWaits)
	}
}

func TestBackoffWaitsAfterRepeatedFailures(t *testing.T) {
	// Force enough failures to walk the whole escalation: spins for
	// deficits 1..backoffMaxShift, then Gosched beyond. The schedule is
	// deterministic (single goroutine), so the count is exact.
	const failures = backoffAfter + backoffMaxShift + 2
	st := forceInsertFailures(t, failures)
	if want := uint64(failures - backoffAfter); st.BackoffWaits != want {
		t.Fatalf("%d failures waited %d times, want %d", failures, st.BackoffWaits, want)
	}
}

func TestBackoffNilStats(t *testing.T) {
	// The same contended schedule with no Stats attached must not panic:
	// every counter increment on the backoff path is nil-tolerant.
	l := NewList[int, int]()
	const times = 6
	for k := 0; k <= 2*(times+2); k += 2 {
		l.Insert(nil, k, k)
	}
	fired := 0
	p := &Proc{Hooks: instrument.HookFunc(func(pt Point, pid int) {
		if pt == PtBeforeInsertCAS && fired < times {
			fired++
			l.Delete(nil, 2*fired)
		}
	})}
	if _, ok := l.Insert(p, 1, 1); !ok {
		t.Fatal("contended insert of fresh key failed")
	}
}

func TestBackoffSkipListWaits(t *testing.T) {
	// Skip-list twin: a level-1 insert C&S forced to fail repeatedly walks
	// the same escalation through insertNode's retry loop.
	l := rigged(allHeight(1))
	const failures = backoffAfter + 3
	for k := 0; k <= 2*(failures+2); k += 2 {
		l.Insert(nil, k, k)
	}
	fired := 0
	st := &OpStats{}
	p := &Proc{Stats: st, Hooks: instrument.HookFunc(func(pt Point, pid int) {
		if pt == PtBeforeInsertCAS && fired < failures {
			fired++
			if _, ok := l.Delete(nil, 2*fired); !ok {
				t.Errorf("hook delete of key %d failed", 2*fired)
			}
		}
	})}
	if _, ok := l.Insert(p, 1, 1); !ok {
		t.Fatal("contended skip-list insert of fresh key failed")
	}
	if want := uint64(failures - backoffAfter); st.BackoffWaits != want {
		t.Fatalf("%d failures waited %d times, want %d", failures, st.BackoffWaits, want)
	}
}

func TestBackoffAllocsNothing(t *testing.T) {
	// A contended insert that waits must still allocate exactly its node:
	// the casBackoff lives on the retry loop's stack.
	l := NewList[int, int]()
	const runs = 100
	const failures = backoffAfter + 2 // deep enough to spin every run
	for k := 0; k <= 2*(runs+1)*(failures+1)+2; k += 2 {
		l.Insert(nil, k, k)
	}
	// Each run inserts the next odd key; its expected successor is always
	// the smallest remaining even key (victim), since victims are consumed
	// in increasing order much faster than the odd keys grow. Deleting the
	// victim right before the C&S forces the failure.
	fired := 0
	victim := 2
	p := &Proc{Hooks: instrument.HookFunc(func(pt Point, pid int) {
		if pt == PtBeforeInsertCAS && fired < failures {
			fired++
			if _, ok := l.Delete(nil, victim); !ok {
				t.Errorf("hook delete of key %d failed", victim)
			}
			victim += 2
		}
	})}
	odd := 1
	allocs := testing.AllocsPerRun(runs, func() {
		fired = 0
		if _, ok := l.Insert(p, odd, odd); !ok {
			t.Fatalf("insert of fresh key %d failed", odd)
		}
		odd += 2
	})
	if allocs != 1 {
		t.Fatalf("backing-off Insert allocates %v objects per op, want exactly 1 (the node)", allocs)
	}
}
