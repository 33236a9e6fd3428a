package telemetry

import (
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/instrument"
)

func TestRecordOpAccumulates(t *testing.T) {
	r := NewRecorder(4)
	st := instrument.OpStats{CASAttempts: 5, CASSuccesses: 2, BacklinkTraversals: 3,
		NextUpdates: 7, CurrUpdates: 11, HelpCalls: 1}
	r.RecordOp(OpInsert, &st, 3*time.Microsecond)
	r.RecordOp(OpGet, nil, 100*time.Nanosecond)

	s := r.Snapshot()
	if s.Counters.CASAttempts != 5 || s.Counters.CASSuccesses != 2 ||
		s.Counters.BacklinkTraversals != 3 || s.Counters.NextUpdates != 7 ||
		s.Counters.CurrUpdates != 11 || s.Counters.HelpCalls != 1 {
		t.Fatalf("counters: %+v", s.Counters)
	}
	ins := s.Ops[OpInsert]
	if ins.Count != 1 || ins.Latency.Sum != 3000 {
		t.Fatalf("insert op snapshot: %+v", ins)
	}
	if ins.Latency.Buckets[bucketOf(3000)] != 1 {
		t.Fatalf("latency sample missing: %+v", ins.Latency)
	}
	// retries = 5 attempts - 2 successes = 3 -> the exact cell 3.
	if ins.Retries.Buckets[bucketOf(3)] != 1 {
		t.Fatalf("retry sample missing: %+v", ins.Retries)
	}
	if s.Ops[OpGet].Count != 1 {
		t.Fatalf("get count: %+v", s.Ops[OpGet])
	}
	if got := s.TotalOps(); got != 2 {
		t.Fatalf("TotalOps = %d", got)
	}
	// Essential steps: 5 + 3 + 7 + 11 = 26 over 2 ops.
	if got := s.EssentialStepsPerOp(); got != 13 {
		t.Fatalf("EssentialStepsPerOp = %v", got)
	}
}

func TestDeltaMonotonicity(t *testing.T) {
	r := NewRecorder(2)
	var cumulative Snapshot
	for round := 0; round < 5; round++ {
		for i := 0; i < 10*(round+1); i++ {
			st := instrument.OpStats{CASAttempts: 2, CASSuccesses: 1, CurrUpdates: 4}
			r.RecordOp(OpDelete, &st, time.Duration(i)*time.Microsecond)
		}
		d := r.Delta()
		// Every delta field must be non-negative by construction (uint64)
		// and exactly the work done this round.
		if want := uint64(10 * (round + 1)); d.Ops[OpDelete].Count != want {
			t.Fatalf("round %d: delta count = %d, want %d", round, d.Ops[OpDelete].Count, want)
		}
		if d.Counters.CASAttempts != 2*uint64(10*(round+1)) {
			t.Fatalf("round %d: delta CAS = %d", round, d.Counters.CASAttempts)
		}
		cumulative.Counters.Add(&d.Counters)
		for op := range d.Ops {
			cumulative.Ops[op].Count += d.Ops[op].Count
			cumulative.Ops[op].Latency.Sum += d.Ops[op].Latency.Sum
		}
	}
	// Deltas must tile the cumulative snapshot exactly.
	s := r.Snapshot()
	if s.Counters != cumulative.Counters {
		t.Fatalf("deltas do not sum to snapshot: %+v vs %+v", cumulative.Counters, s.Counters)
	}
	if s.Ops[OpDelete].Count != cumulative.Ops[OpDelete].Count ||
		s.Ops[OpDelete].Latency.Sum != cumulative.Ops[OpDelete].Latency.Sum {
		t.Fatalf("op deltas do not sum to snapshot")
	}
	// A fresh Delta after no activity is all-zero.
	if d := r.Delta(); d != (Snapshot{}) {
		t.Fatalf("idle delta nonzero: %+v", d)
	}
}

func TestSnapshotSubSaturates(t *testing.T) {
	var a, b Snapshot
	a.Counters.CASAttempts = 3
	b.Counters.CASAttempts = 5
	d := a.Sub(b)
	if d.Counters.CASAttempts != 0 {
		t.Fatalf("Sub must saturate at zero, got %d", d.Counters.CASAttempts)
	}
}

func TestRecorderShardCount(t *testing.T) {
	if got := NewRecorder(3).Shards(); got != 4 {
		t.Fatalf("shards(3) = %d, want 4", got)
	}
	if got := NewRecorder(0).Shards(); got < 1 {
		t.Fatalf("default shards = %d", got)
	}
	if got := NewRecorder(1 << 20).Shards(); got != 256 {
		t.Fatalf("shards cap = %d", got)
	}
}

// TestConcurrentRecordNoLostUpdates hammers one recorder from many
// goroutines and checks the totals are exact: striping must never lose or
// duplicate counts. Run under -race this also vouches for the unsafe
// shard-index trick.
func TestConcurrentRecordNoLostUpdates(t *testing.T) {
	r := NewRecorder(8)
	const workers = 8
	const perWorker = 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				st := instrument.OpStats{CASAttempts: 1, CASSuccesses: 1, NextUpdates: 2}
				r.RecordOp(Op(i%int(NumOps)), &st, time.Microsecond)
			}
		}()
	}
	wg.Wait()
	s := r.Snapshot()
	if got := s.TotalOps(); got != workers*perWorker {
		t.Fatalf("TotalOps = %d, want %d", got, workers*perWorker)
	}
	if s.Counters.CASAttempts != workers*perWorker ||
		s.Counters.NextUpdates != 2*workers*perWorker {
		t.Fatalf("counters lost updates: %+v", s.Counters)
	}
	var latTotal uint64
	for op := range s.Ops {
		for _, c := range s.Ops[op].Latency.Buckets {
			latTotal += c
		}
	}
	if latTotal != workers*perWorker {
		t.Fatalf("latency samples = %d, want %d", latTotal, workers*perWorker)
	}
}

// TestStartFinishSampling drives the hot-path token API serially on one
// shard: counts and counters must be exact, histograms sampled exactly one
// in SampleEvery.
func TestStartFinishSampling(t *testing.T) {
	r := NewRecorder(1)
	if r.SampleEvery() != DefaultSampleEvery {
		t.Fatalf("default SampleEvery = %d", r.SampleEvery())
	}
	const ops = 100
	for i := 0; i < ops; i++ {
		tok := r.StartOp(OpInsert)
		st := instrument.OpStats{CASAttempts: 3, CASSuccesses: 1, CurrUpdates: 2}
		r.FinishOp(tok, OpInsert, &st)
	}
	s := r.Snapshot()
	ins := s.Ops[OpInsert]
	if ins.Count != ops {
		t.Fatalf("count = %d (must be exact under sampling)", ins.Count)
	}
	// 6 sampled ops (every 16th of 100), step counters scaled by 16:
	// CASAttempts 6*3*16, CurrUpdates 6*2*16.
	const sampled = ops / DefaultSampleEvery
	if s.Counters.CASAttempts != 3*sampled*DefaultSampleEvery ||
		s.Counters.CurrUpdates != 2*sampled*DefaultSampleEvery {
		t.Fatalf("scaled counters wrong: %+v", s.Counters)
	}
	if got, want := ins.Latency.Count, uint64(sampled); got != want {
		t.Fatalf("latency samples = %d, want %d", got, want)
	}
	// Each sampled op had retries = 3-1 = 2 (histograms are per-sample,
	// not scaled).
	if got := ins.Retries.Buckets[bucketOf(2)]; got != uint64(sampled) {
		t.Fatalf("retry samples: %+v", ins.Retries)
	}
	if got := ins.Retries.Sum; got != 2*uint64(sampled) {
		t.Fatalf("retry sum = %d", got)
	}
}

// TestSetSampleEveryOne makes the token path record every op.
func TestSetSampleEveryOne(t *testing.T) {
	r := NewRecorder(1)
	r.SetSampleEvery(1)
	for i := 0; i < 10; i++ {
		tok := r.StartOp(OpGet)
		r.FinishOp(tok, OpGet, nil)
	}
	s := r.Snapshot()
	if s.Ops[OpGet].Latency.Count != 10 {
		t.Fatalf("samples = %d, want 10", s.Ops[OpGet].Latency.Count)
	}
	// Rounding up to powers of two.
	r.SetSampleEvery(5)
	if r.SampleEvery() != 8 {
		t.Fatalf("SetSampleEvery(5) -> %d, want 8", r.SampleEvery())
	}
}

// TestGroupRecordedOnce drives the group calls serially on one shard. At
// period 1 a group is exact: the count grows by its members, its step
// vector is added once, its elapsed time once, and every member gets a
// latency and a retry sample. At a longer period the members sampled are
// the ones whose place in the count falls on the period - what StartOp
// would have picked had they come one by one - and the vector is scaled
// so that the totals stay unbiased.
func TestGroupRecordedOnce(t *testing.T) {
	r := NewRecorder(1)
	r.SetSampleEvery(1)
	st := instrument.OpStats{CASAttempts: 7, CASSuccesses: 2, NextUpdates: 90, CurrUpdates: 90}
	tok := r.StartGroup(OpGet, 13)
	if !tok.Sampled() {
		t.Fatal("period 1: group not sampled")
	}
	r.FinishGroup(tok, OpGet, 13, &st)
	s := r.Snapshot()
	get := s.Ops[OpGet]
	if get.Count != 13 || get.Latency.Count != 13 || get.Retries.Count != 13 {
		t.Fatalf("count/latency/retry samples = %d/%d/%d, want 13 each", get.Count, get.Latency.Count, get.Retries.Count)
	}
	if s.Counters.NextUpdates != 90 || s.Counters.CASAttempts != 7 || get.Retries.Sum != 5 {
		t.Fatalf("vector not added exactly once: %+v, retry sum %d", s.Counters, get.Retries.Sum)
	}
	// 5 failed C&S over 13 members: every member's share rounds to none.
	if get.Retries.Buckets[bucketOf(0)] != 13 {
		t.Fatalf("retry samples: %+v", get.Retries)
	}

	// Period 16, groups of 5: of 80 members, the 16th, 32nd ... 80th are
	// sampled, one per sampled group, each standing for 16 operations that
	// paid a fifth of its group's steps.
	r = NewRecorder(1)
	sampledGroups := 0
	for g := 0; g < 16; g++ {
		tok := r.StartGroup(OpGet, 5)
		if tok.Sampled() {
			sampledGroups++
		}
		r.FinishGroup(tok, OpGet, 5, &instrument.OpStats{NextUpdates: 100})
	}
	s = r.Snapshot()
	if got := s.Ops[OpGet]; got.Count != 80 || got.Latency.Count != 5 || sampledGroups != 5 {
		t.Fatalf("count %d, %d latency samples, %d sampled groups; want 80, 5, 5", got.Count, got.Latency.Count, sampledGroups)
	}
	if want := uint64(5 * 100 * DefaultSampleEvery / 5); s.Counters.NextUpdates != want {
		t.Fatalf("scaled steps = %d, want %d (the true total is 1600)", s.Counters.NextUpdates, want)
	}

	// A group as wide as the period always holds exactly one sampled
	// member, wherever the count stands.
	r = NewRecorder(1)
	r.FinishOp(r.StartOp(OpGet), OpGet, nil)
	for g := 0; g < 4; g++ {
		tok := r.StartGroup(OpGet, DefaultSampleEvery)
		r.FinishGroup(tok, OpGet, DefaultSampleEvery, &instrument.OpStats{NextUpdates: 32})
	}
	s = r.Snapshot()
	if got := s.Ops[OpGet]; got.Count != 65 || got.Latency.Count != 4 || s.Counters.NextUpdates != 4*32 {
		t.Fatalf("count %d, %d samples, %d steps; want 65, 4, 128", got.Count, got.Latency.Count, s.Counters.NextUpdates)
	}
}

// TestConcurrentStartFinishNoLostUpdates is the token-path twin of
// TestConcurrentRecordNoLostUpdates: counts exact, scaled counter
// estimates internally consistent, sampled histogram totals bounded by the
// op count.
func TestConcurrentStartFinishNoLostUpdates(t *testing.T) {
	r := NewRecorder(8)
	const workers = 8
	const perWorker = 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				op := Op(i % int(NumOps))
				tok := r.StartOp(op)
				var st *instrument.OpStats
				if tok.Sampled() {
					st = &instrument.OpStats{CASAttempts: 1, CASSuccesses: 1, NextUpdates: 2}
				}
				r.FinishOp(tok, op, st)
			}
		}()
	}
	wg.Wait()
	s := r.Snapshot()
	if got := s.TotalOps(); got != workers*perWorker {
		t.Fatalf("TotalOps = %d, want %d", got, workers*perWorker)
	}
	// Every sampled op contributed the same stats, so the scaled estimates
	// must preserve the 1:2 CAS:NextUpdates ratio exactly and stay within
	// the true totals.
	if s.Counters.CASAttempts == 0 || s.Counters.NextUpdates != 2*s.Counters.CASAttempts {
		t.Fatalf("scaled counters inconsistent: %+v", s.Counters)
	}
	if s.Counters.CASAttempts > workers*perWorker {
		t.Fatalf("scaled estimate exceeds true total: %+v", s.Counters)
	}
	var latTotal uint64
	for op := range s.Ops {
		latTotal += s.Ops[op].Latency.Count
	}
	if latTotal == 0 || latTotal > workers*perWorker {
		t.Fatalf("latency samples = %d, want in (0, %d]", latTotal, workers*perWorker)
	}
}

func TestNanotimeMonotone(t *testing.T) {
	a := Nanotime()
	b := Nanotime()
	if b < a {
		t.Fatalf("Nanotime went backwards: %d then %d", a, b)
	}
}

func TestOpStrings(t *testing.T) {
	seen := map[string]bool{}
	for op := Op(0); op < NumOps; op++ {
		s := op.String()
		if s == "" || s == "unknown" || seen[s] {
			t.Fatalf("op %d name %q", op, s)
		}
		seen[s] = true
	}
	if NumOps.String() != "unknown" {
		t.Fatal("out-of-range op must be unknown")
	}
}

// bucketOf returns the index of the instrument.Hist bucket that holds v.
func bucketOf(v int64) int {
	i := 0
	for instrument.HistUpperBound(i) < v {
		i++
	}
	return i
}

// TestRecorderP50WithinHistError: a recorder's latency quantiles carry
// instrument.Hist's relative error, at most 12.5%, wherever the latency
// falls. 3 µs is mid-decade, where hand-picked decade bounds are coarsest.
func TestRecorderP50WithinHistError(t *testing.T) {
	r := NewRecorder(1)
	for i := 0; i < 1000; i++ {
		r.RecordOp(OpGet, nil, 3*time.Microsecond)
	}
	p50, ok := r.Snapshot().Ops[OpGet].Latency.Quantile(0.50)
	if !ok {
		t.Fatal("no latency samples")
	}
	if err := math.Abs(float64(p50)-3000) / 3000; err > 0.125 {
		t.Fatalf("p50 = %d ns, %.1f%% off 3000 ns (want within 12.5%%)", p50, 100*err)
	}
}
