package core

import (
	"testing"

	"repro/internal/instrument"
)

// These tests pin the retry policy of the paper: a failed C&S re-reads the
// predecessor's successor field and retries at once, with no wait between
// attempts. Each forced failure costs exactly one failed C&S and the retry
// loop allocates nothing beyond the operation's node, however many times
// it goes round.

// forceInsertFailures builds a deterministic single-goroutine schedule
// that makes one list Insert lose its C&S exactly times times: even keys
// 0,2,4,... are pre-inserted, the hook deletes the pending C&S's expected
// successor right before each attempt, so the attempt fails and the retry
// re-searches. Returns the list and the stats of the contended insert.
func forceInsertFailures(t *testing.T, times int) (*List[int, int], *OpStats) {
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
	if fired != times {
		t.Fatalf("hook fired %d times, want %d", fired, times)
	}
	return l, st
}

func TestRetryUncontendedNeverFails(t *testing.T) {
	// Uncontended operations never lose a C&S, so they never retry.
	l := NewList[int, int]()
	st := &OpStats{}
	p := &Proc{Stats: st}
	l.Insert(p, 1, 1)
	l.Get(p, 1)
	l.Delete(p, 1)
	if st.CASAttempts != st.CASSuccesses {
		t.Fatalf("uncontended ops failed %d C&S, want 0", st.CASAttempts-st.CASSuccesses)
	}
}

func TestRetryRepeatedFailuresCountedOnce(t *testing.T) {
	// Each forced failure is one failed C&S; the insert then succeeds with
	// a single successful C&S, and the deleted successors are gone.
	for _, times := range []int{1, 4, 12} {
		l, st := forceInsertFailures(t, times)
		if got := st.CASAttempts - st.CASSuccesses; got != uint64(times) {
			t.Errorf("%d forced failures cost %d failed C&S, want %d", times, got, times)
		}
		if st.CASSuccesses != 1 {
			t.Errorf("%d forced failures: %d successful C&S, want 1", times, st.CASSuccesses)
		}
		if v, ok := l.Get(nil, 1); !ok || v != 1 {
			t.Errorf("%d forced failures: Get(1) = %d, %v, want 1, true", times, v, ok)
		}
		for k := 2; k <= 2*times; k += 2 {
			if _, ok := l.Get(nil, k); ok {
				t.Errorf("%d forced failures: hook-deleted key %d still present", times, k)
			}
		}
	}
}

func TestRetryNilStats(t *testing.T) {
	// The same contended schedule with no Stats attached must not panic:
	// every counter increment on the retry path is nil-tolerant.
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
	if _, ok := l.Get(nil, 1); !ok {
		t.Fatal("contended insert's key is missing")
	}
}

func TestRetrySkipListRepeatedFailures(t *testing.T) {
	// Skip-list twin: a level-1 insert C&S forced to fail repeatedly goes
	// round insertNode's retry loop once per failure and then succeeds.
	l := rigged(allHeight(1))
	const failures = 7
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
	if got := st.CASAttempts - st.CASSuccesses; got != failures {
		t.Fatalf("%d forced failures cost %d failed C&S, want %d", failures, got, failures)
	}
	if v, ok := l.Get(nil, 1); !ok || v != 1 {
		t.Fatalf("Get(1) = %d, %v, want 1, true", v, ok)
	}
}

func TestRetryRepeatedFailuresAllocsNothing(t *testing.T) {
	// A contended insert that fails several times in a row must still
	// allocate exactly its node: the retry loop keeps no per-attempt state
	// on the heap.
	l := NewList[int, int]()
	const runs = 100
	const failures = 6
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
		t.Fatalf("repeatedly failing Insert allocates %v objects per op, want exactly 1 (the node)", allocs)
	}
}
