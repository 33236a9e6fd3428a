package history

import (
	"errors"
	"math/rand/v2"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

func op(kind Kind, key int, result bool, start, end int64) Op {
	return Op{Kind: kind, Key: key, Result: result, Start: start, End: end}
}

func TestCheckSequentialValid(t *testing.T) {
	ops := []Op{
		op(KindSearch, 1, false, 1, 2),
		op(KindInsert, 1, true, 3, 4),
		op(KindSearch, 1, true, 5, 6),
		op(KindInsert, 1, false, 7, 8),
		op(KindDelete, 1, true, 9, 10),
		op(KindDelete, 1, false, 11, 12),
		op(KindSearch, 1, false, 13, 14),
	}
	if err := Check(ops); err != nil {
		t.Fatal(err)
	}
}

func TestCheckSequentialInvalid(t *testing.T) {
	cases := map[string][]Op{
		"search finds absent key": {
			op(KindSearch, 1, true, 1, 2),
		},
		"double successful insert": {
			op(KindInsert, 1, true, 1, 2),
			op(KindInsert, 1, true, 3, 4),
		},
		"delete of absent key succeeds": {
			op(KindDelete, 1, true, 1, 2),
		},
		"search misses present key": {
			op(KindInsert, 1, true, 1, 2),
			op(KindSearch, 1, false, 3, 4),
		},
		"failed insert on empty": {
			op(KindInsert, 1, false, 1, 2),
		},
	}
	for name, ops := range cases {
		if err := Check(ops); err == nil {
			t.Errorf("%s: accepted", name)
		} else if _, isViolation := err.(*Violation); !isViolation {
			t.Errorf("%s: wrong error type %T", name, err)
		}
	}
}

func TestCheckConcurrentReordering(t *testing.T) {
	// Overlapping insert and search: the search may run either before or
	// after the insert's linearization point, so both results are valid.
	for _, searchResult := range []bool{true, false} {
		ops := []Op{
			op(KindInsert, 5, true, 1, 10),
			op(KindSearch, 5, searchResult, 2, 9),
		}
		if err := Check(ops); err != nil {
			t.Fatalf("searchResult=%t: %v", searchResult, err)
		}
	}
	// But a search that begins after the insert returned must see it.
	ops := []Op{
		op(KindInsert, 5, true, 1, 2),
		op(KindSearch, 5, false, 3, 4),
	}
	if err := Check(ops); err == nil {
		t.Fatal("stale read across a real-time edge accepted")
	}
}

func TestCheckConcurrentDeleteRace(t *testing.T) {
	// Two overlapping deletes of the same present key: exactly one may
	// succeed.
	base := []Op{op(KindInsert, 7, true, 1, 2)}
	oneWin := append(base,
		op(KindDelete, 7, true, 3, 8),
		op(KindDelete, 7, false, 4, 7),
	)
	if err := Check(oneWin); err != nil {
		t.Fatal(err)
	}
	bothWin := append(base,
		op(KindDelete, 7, true, 3, 8),
		op(KindDelete, 7, true, 4, 7),
	)
	if err := Check(bothWin); err == nil {
		t.Fatal("two successful deletes of one key accepted")
	}
	bothLose := append(base,
		op(KindDelete, 7, false, 3, 8),
		op(KindDelete, 7, false, 4, 7),
	)
	if err := Check(bothLose); err == nil {
		t.Fatal("present key deleted by nobody accepted")
	}
}

func TestCheckKeysIndependent(t *testing.T) {
	ops := []Op{
		op(KindInsert, 1, true, 1, 2),
		op(KindInsert, 2, true, 1, 2), // same timestamps, different key: fine
		op(KindSearch, 1, true, 3, 4),
		op(KindSearch, 2, true, 3, 4),
		op(KindSearch, 3, false, 3, 4),
	}
	if err := Check(ops); err != nil {
		t.Fatal(err)
	}
}

// TestCheckDense: a key's ops may all overlap, however many there are.
func TestCheckDense(t *testing.T) {
	var searches []Op
	for i := 0; i < 70; i++ {
		// All 70 ops on one key overlap: [1, 1000].
		searches = append(searches, op(KindSearch, 1, false, 1, 1000))
	}
	if err := Check(searches); err != nil {
		t.Fatalf("70 overlapping searches of an absent key: %v", err)
	}

	// Two successful inserts need a successful delete between them.
	dense := slices.Clone(searches)
	dense[10] = op(KindInsert, 1, true, 1, 1000)
	dense[60] = op(KindInsert, 1, true, 1, 1000)
	if err := Check(dense); err == nil || !errors.As(err, new(*Violation)) {
		t.Fatalf("70 overlapping ops with two successful inserts and no delete: err = %v, want a *Violation", err)
	}

	// 2^16 ops on one key, op i over [i, n+i], so every op overlaps every
	// other: as many successful inserts as deletes, and reads of both
	// values, which some order interleaves validly. With one insert
	// failed instead, a delete has nothing to remove.
	const n = 1 << 16
	big := make([]Op, n)
	rng := rand.New(rand.NewPCG(1, 2))
	for i := range big {
		o := Op{Key: 1, Start: int64(i), End: int64(n + i), Proc: i}
		switch i % 4 {
		case 0:
			o.Kind, o.Result = KindInsert, true
		case 1:
			o.Kind, o.Result = KindDelete, true
		case 2:
			o.Kind, o.Result = KindSearch, rng.IntN(2) == 1
		default:
			o.Kind = KindInsert + Kind(rng.IntN(2))
		}
		big[i] = o
	}
	for _, tc := range []struct {
		name string
		ops  []Op
		ok   bool
	}{
		{"valid", big, true},
		{"one insert failed", append(slices.Clone(big[1:]), op(KindInsert, 1, false, 0, n)), false},
	} {
		start := time.Now()
		err := Check(tc.ops)
		if took := time.Since(start); took > time.Second {
			t.Fatalf("%s: a %d-op one-key history took %v to check, want under 1s", tc.name, n, took)
		}
		if _, isViolation := err.(*Violation); (err == nil) != tc.ok || err != nil && !isViolation {
			t.Fatalf("%s: %d overlapping ops: err = %v, want linearizable = %t", tc.name, n, err, tc.ok)
		}
	}
}

func TestCheckSegmentationCarriesState(t *testing.T) {
	// Segment 1 leaves the key present; segment 2's search must see it.
	ops := []Op{
		op(KindInsert, 1, true, 1, 2),
		// quiescent cut
		op(KindSearch, 1, false, 10, 11), // wrong: key is present
	}
	if err := Check(ops); err == nil {
		t.Fatal("state not carried across segments")
	}
	ops[1].Result = true
	if err := Check(ops); err != nil {
		t.Fatal(err)
	}
}

func pending(kind Kind, key int, start, end int64) Op {
	return Op{Kind: kind, Key: key, Pending: true, Start: start, End: end}
}

// TestCrashPendingInsertExplainsAckedDelete: an acked delete of a key no
// acked insert wrote is explained by an insert whose reply the crash cut
// off, and by nothing else.
func TestCrashPendingInsertExplainsAckedDelete(t *testing.T) {
	ops := []Op{
		pending(KindInsert, 1, 1, 10),
		op(KindDelete, 1, true, 2, 5),
		op(KindSearch, 1, false, 11, 12), // after the restart
	}
	if err := Check(ops); err != nil {
		t.Fatal(err)
	}
	if err := Check(ops[1:]); !errors.As(err, new(*Violation)) {
		t.Fatalf("without the pending insert: err = %v, want a *Violation", err)
	}
}

// TestCrashPendingInsertCannotExplainSecondRead: a pending insert may have
// taken effect before the crash, so a read after the restart may find the
// key, but it cannot take effect between two such reads. Recorded through
// a Recorder, so Abandon stamps the cut.
func TestCrashPendingInsertCannotExplainSecondRead(t *testing.T) {
	for _, second := range []bool{true, false} {
		rec := NewRecorder(2, 4)
		w, r := rec.Thread(0), rec.Thread(1)
		o := w.Begin(KindInsert, 3)
		w.Abandon(o)
		for _, found := range []bool{true, second} {
			o := r.Begin(KindSearch, 3)
			r.End(o, found)
		}
		err := Check(rec.Ops())
		if second && err != nil {
			t.Fatalf("two finds after the crash: %v", err)
		}
		if !second && !errors.As(err, new(*Violation)) {
			t.Fatalf("a find, then a miss, after the crash: err = %v, want a *Violation", err)
		}
	}
}

// TestCrashPendingSearchIgnored: a search cut off by the crash read
// nothing, so it neither explains nor contradicts anything.
func TestCrashPendingSearchIgnored(t *testing.T) {
	ops := []Op{
		pending(KindSearch, 1, 1, 10),
		op(KindSearch, 1, true, 11, 12),
	}
	if err := Check(ops); !errors.As(err, new(*Violation)) {
		t.Fatalf("a find explained by a pending search: err = %v, want a *Violation", err)
	}
	if err := Check(ops[:1]); err != nil {
		t.Fatalf("a lone pending search: %v", err)
	}
}

// TestCrashAllPendingKeyPasses: a key whose every op the crash cut off
// passes, whatever their kinds and however they overlap.
func TestCrashAllPendingKeyPasses(t *testing.T) {
	ops := []Op{
		pending(KindDelete, 4, 1, 9),
		pending(KindInsert, 4, 2, 8),
		pending(KindInsert, 4, 3, 10),
		pending(KindSearch, 4, 4, 11),
		op(KindInsert, 5, true, 1, 2), // another key, acked
	}
	if err := Check(ops); err != nil {
		t.Fatal(err)
	}
}

// TestRecorderWithCoreList runs a real concurrent workload against the
// core list and checks the recorded history end to end, in several rounds
// with different op streams; every round must linearize.
func TestRecorderWithCoreList(t *testing.T) {
	const rounds, workers, ops, keyRange = 6, 8, 400, 16
	for round := 0; round < rounds; round++ {
		l := core.NewList[int, int]()
		rec := NewRecorder(workers, ops)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				th := rec.Thread(w)
				rng := rand.New(rand.NewPCG(uint64(w), 77+uint64(round)))
				p := &core.Proc{ID: w}
				for i := 0; i < ops; i++ {
					k := int(rng.Uint64N(keyRange))
					switch rng.Uint64N(3) {
					case 0:
						o := th.Begin(KindInsert, k)
						_, ok := l.Insert(p, k, k)
						th.End(o, ok)
					case 1:
						o := th.Begin(KindDelete, k)
						_, ok := l.Delete(p, k)
						th.End(o, ok)
					default:
						o := th.Begin(KindSearch, k)
						ok := l.Search(p, k) != nil
						th.End(o, ok)
					}
				}
			}(w)
		}
		wg.Wait()
		if err := Check(rec.Ops()); err != nil {
			t.Fatalf("round %d: core list produced a non-linearizable history: %v", round, err)
		}
	}
}

// TestCheckerCatchesBrokenDictionary runs the same workload against a
// deliberately racy map (no synchronization of result computation) and
// expects the checker to reject at least one of many histories - a smoke
// test that the checker has teeth. The broken structure races on a plain
// mutex-free map guarded only per-operation, producing stale results.
func TestCheckerCatchesBrokenDictionary(t *testing.T) {
	caught := false
	for round := 0; round < 20 && !caught; round++ {
		var mu sync.Mutex
		m := map[int]bool{}
		const workers, ops, keyRange = 8, 300, 4
		rec := NewRecorder(workers, ops)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				th := rec.Thread(w)
				rng := rand.New(rand.NewPCG(uint64(w), uint64(round)))
				for i := 0; i < ops; i++ {
					k := int(rng.Uint64N(keyRange))
					switch rng.Uint64N(3) {
					case 0:
						o := th.Begin(KindInsert, k)
						// Broken: check-then-act with the lock released
						// in between, so two inserts can both "succeed".
						mu.Lock()
						present := m[k]
						mu.Unlock()
						runtime.Gosched()
						mu.Lock()
						m[k] = true
						mu.Unlock()
						th.End(o, !present)
					case 1:
						o := th.Begin(KindDelete, k)
						mu.Lock()
						present := m[k]
						mu.Unlock()
						runtime.Gosched()
						mu.Lock()
						delete(m, k)
						mu.Unlock()
						th.End(o, present)
					default:
						o := th.Begin(KindSearch, k)
						mu.Lock()
						present := m[k]
						mu.Unlock()
						th.End(o, present)
					}
				}
			}(w)
		}
		wg.Wait()
		if err := Check(rec.Ops()); err != nil {
			if _, ok := err.(*Violation); !ok {
				t.Fatalf("round %d: err = %v, want a *Violation", round, err)
			}
			caught = true
		}
	}
	if !caught {
		t.Fatal("checker accepted every history from a racy dictionary")
	}
}
