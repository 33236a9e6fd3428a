// Package telemetry is the always-on observability core for the lock-free
// structures: striped, cache-line-padded atomic counters over the
// essential-step vocabulary of internal/instrument (the paper's Section 3.4
// cost accounting), plus a latency and a retry histogram per operation
// kind, both instrument.Hist.
//
// The design goal is near-zero overhead on hot paths under many goroutines:
//
//   - Operation counts are exact, but everything else rides on sampling:
//     one in SampleEvery operations runs with step accounting attached,
//     reads the clock, and flushes — scaled by the period, so counter
//     totals are unbiased — while the rest pay one atomic load and one
//     atomic add. A period of 1 records every operation exactly.
//   - Sampled operations accumulate their steps in a private
//     instrument.OpStats (no shared writes while the operation runs) and
//     flush once, at completion, into a stripe of atomic counters and
//     histograms.
//   - Stripes are padded to cache-line size and selected by instrument's
//     goroutine-affine hash, so concurrent flushes rarely contend on a
//     line.
//   - Reading (Snapshot, Delta) sums the stripes; readers never block
//     writers.
//
// The exporter layer (expvar, Prometheus text format) lives in the public
// package repro/lockfree/telemetry; this package has no HTTP or encoding
// dependencies.
package telemetry

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/instrument"
)

// Op identifies the operation kind a latency/retry sample belongs to.
type Op uint8

// Operation kinds. Contains/Search record as OpGet; full and range
// iterations record as OpAscend.
const (
	OpInsert Op = iota
	OpGet
	OpDelete
	OpAscend
	// NumOps is the number of operation kinds.
	NumOps
)

// String returns the op's exporter label.
func (o Op) String() string {
	switch o {
	case OpInsert:
		return "insert"
	case OpGet:
		return "get"
	case OpDelete:
		return "delete"
	case OpAscend:
		return "ascend"
	default:
		return "unknown"
	}
}

// NumCounters is the size of the essential-step vocabulary, re-exported
// for consumers that index counter vectors.
const NumCounters = int(instrument.NumCounters)

// CounterName returns the canonical exporter name of counter index c.
func CounterName(c int) string { return instrument.CounterNames[c] }

// base anchors Nanotime. Reading time.Since of a monotonic base costs one
// clock read; time.Now costs two (wall + monotonic).
var base = time.Now()

// Nanotime returns monotonic nanoseconds since an arbitrary process-local
// epoch. Only differences of Nanotime values are meaningful.
func Nanotime() int64 { return int64(time.Since(base)) }

// DefaultSampleEvery is the default sampling period of the full recording
// path: one in every DefaultSampleEvery operations (per shard and
// operation kind) pays for step accounting, two clock reads, and the
// histogram atomics; its step counters are flushed scaled by the period so
// the counter totals are unbiased estimates. Operation counts are never
// sampled; they stay exact. A period of 1 records everything exactly.
const DefaultSampleEvery = 16

// Recorder collects metrics for one structure. All methods are safe for
// concurrent use. The zero value is not usable; construct with NewRecorder.
type Recorder struct {
	shards     []shard
	mask       uint32
	sampleMask uint64

	// deltaMu serializes Delta callers; last is the snapshot the previous
	// Delta call observed.
	deltaMu sync.Mutex
	last    Snapshot
}

// shard is one stripe of the recorder. Each shard ends with cache-line
// padding so that two shards never share a line; within a shard the
// fields are written together by the same flush, so they benefit from
// sharing lines.
type shard struct {
	counters [instrument.NumCounters]atomic.Uint64
	ops      [NumOps]opShard
	_        [instrument.CacheLine]byte
}

// opShard holds one operation kind's count and histograms inside a shard:
// latency in nanoseconds, retries in failed C&S.
type opShard struct {
	count   atomic.Uint64
	latency instrument.Hist
	retries instrument.Hist
}

// NewRecorder returns a Recorder with instrument.Stripes(shards) shards:
// shards rounded up to a power of two, capped at 256; shards <= 0 selects
// the default, twice GOMAXPROCS.
func NewRecorder(shards int) *Recorder {
	n := instrument.Stripes(shards)
	return &Recorder{
		shards:     make([]shard, n),
		mask:       uint32(n - 1),
		sampleMask: DefaultSampleEvery - 1,
	}
}

// Shards returns the shard count (for tests and diagnostics).
func (r *Recorder) Shards() int { return len(r.shards) }

// shard returns the calling goroutine's stripe.
func (r *Recorder) shard() *shard { return &r.shards[instrument.Stripe()&r.mask] }

// SetSampleEvery sets the full-recording sampling period to every n-th
// operation, rounded up to a power of two; n <= 1 records every operation
// exactly. Call before the recorder is shared (the field is read
// unsynchronized on the hot path).
func (r *Recorder) SetSampleEvery(n int) {
	p := 1
	for p < n {
		p <<= 1
	}
	r.sampleMask = uint64(p - 1)
}

// SampleEvery returns the current histogram sampling period.
func (r *Recorder) SampleEvery() int { return int(r.sampleMask + 1) }

// flush is the one recording body of sampled operations: n operations
// of kind op, k of them sampled, each sampled one standing for scale
// operations, shared one step vector, st, and one elapsed time, el. Each
// sampled member is taken to have paid an n-th of both: the counters grow
// by the vector times k·scale/n, and each histogram takes k samples of
// the n-th share. The exact completed-op count is the caller's, added
// before the clock is read so the next sampling decision sees it soonest.
func (sh *shard) flush(op Op, n, k, scale uint64, st *instrument.OpStats, el int64) {
	var retries uint64
	if st != nil {
		w := k * scale
		for i, v := range st.Vector() {
			if v != 0 {
				if n > 1 {
					v = v * w / n
				} else {
					v *= w // a single op: no division on the per-op path
				}
				sh.counters[i].Add(v)
			}
		}
		retries = st.CASAttempts - st.CASSuccesses
	}
	o := &sh.ops[op]
	o.latency.RecordShare(el, n, k)
	o.retries.RecordShare(int64(retries), n, k)
}

// RecordOp flushes one completed operation into the recorder, unsampled
// and unscaled: its essential-step counters, one latency sample, and one
// retry sample (retries = failed C&S attempts). st may be nil for
// operations that carry no step counters (e.g. iteration).
func (r *Recorder) RecordOp(op Op, st *instrument.OpStats, elapsed time.Duration) {
	sh := r.shard()
	sh.ops[op].count.Add(1)
	sh.flush(op, 1, 1, 1, st, int64(elapsed))
}

// AddCounter adds n directly to one vocabulary counter, bypassing the
// per-operation flush path. Layers above the core structures (e.g. the
// range-sharded map's routing accounting) use it for counters that do not
// belong to any single inner operation's OpStats. Exact, never sampled.
func (r *Recorder) AddCounter(c instrument.Counter, n uint64) {
	if n == 0 {
		return
	}
	r.shard().counters[c].Add(n)
}

// AddGauge adjusts a gauge-class counter (instrument.Counter.Gauge) by
// delta, which may be negative (stored as the two's complement). Unlike
// monotonic counters, a gauge is pinned to one fixed cell rather than
// striped: with increments and decrements landing on different shards, a
// snapshot that sums the stripes can read the decrement's shard after
// missing a newer increment and report a level that never existed —
// including a negative one. A single cell makes every read a true
// point-in-time level: as long as each decrement is program-ordered after
// its matching increment (the serving layer's contract for conn_active),
// no reader can ever observe the gauge negative. Gauge updates are rare
// (connection open/close), so the lost striping costs nothing. Exact,
// never sampled, like AddCounter.
func (r *Recorder) AddGauge(c instrument.Counter, delta int64) {
	if delta == 0 {
		return
	}
	r.shards[0].counters[c].Add(uint64(delta))
}

// OpToken carries the state of one operation, or of one group of
// operations, from StartGroup to FinishGroup. Tokens must not outlive the
// operation or be reused.
type OpToken struct {
	sh    *shard
	start int64 // Nanotime at the start, or -1 when no member is foreseen sampled
}

// Sampled reports whether this operation (or some member of the group)
// was selected for full recording: step accounting, latency, and retries.
// Callers skip collecting step counters entirely for unsampled tokens.
func (t OpToken) Sampled() bool { return t.start >= 0 }

// StartGroup begins the recording of n operations of one kind that run as
// one unit and cannot be told apart while they run - the keys of a batched
// Get going down the skip list together, or a single operation at n = 1.
// The members take the shard's next n places in the completed-op count,
// and those whose place is a multiple of the sampling period are sampled.
// A group without a sampled member costs one atomic load here and one
// atomic add in FinishGroup: no clock read, no step accounting. At period
// 1 every member is sampled.
func (r *Recorder) StartGroup(op Op, n int) OpToken {
	sh := r.shard()
	tok := OpToken{sh: sh, start: -1}
	place := sh.ops[op].count.Load() & r.sampleMask
	if (place+uint64(n))>>bits.Len64(r.sampleMask) > 0 {
		tok.start = Nanotime()
	}
	return tok
}

// FinishGroup completes a group begun with StartGroup. The completed-op
// count grows by n exactly. A sampled group is recorded ONCE: its members
// shared their steps, so there is one step vector, st, and one elapsed
// time for all n. Each member is taken to have paid an n-th of both: the
// sampled members add their share of the vector, scaled by the period,
// and one latency and one retry sample each, in the bucket of the n-th
// share. At period 1 that is the exact vector added once, the elapsed
// time added once to the latency sum, and n samples.
//
// StartGroup read the count racily, so it only foresees the sampled
// members and reads the clock for them. The places the members took are
// the ones the count's add returns, and the members sampled are those of
// a foreseen group whose taken place is a multiple of the period. Two
// racing operations therefore never sample one place twice, and the
// scaled totals never exceed the true ones.
func (r *Recorder) FinishGroup(tok OpToken, op Op, n int, st *instrument.OpStats) {
	end := tok.sh.ops[op].count.Add(uint64(n))
	if tok.start < 0 {
		return
	}
	shift := bits.Len64(r.sampleMask)
	if k := end>>shift - (end-uint64(n))>>shift; k > 0 {
		tok.sh.flush(op, uint64(n), k, r.sampleMask+1, st, Nanotime()-tok.start)
	}
}

// Snapshot is a consistent-enough point-in-time copy of every metric (each
// shard counter is read atomically; the set is not read under a global
// lock, matching the structures' own weakly consistent iteration).
type Snapshot struct {
	// Counters holds the essential-step totals in the shared vocabulary.
	Counters instrument.OpStats
	// Ops holds per-operation-kind counts and histograms, indexed by Op.
	Ops [NumOps]OpSnapshot
}

// OpSnapshot is the per-operation-kind slice of a Snapshot. Count is
// exact; the histograms cover only the sampled subset of operations
// (every operation, when the recorder samples every 1), so their Count is
// the number of sampled operations.
type OpSnapshot struct {
	// Count is the number of completed operations of this kind.
	Count uint64
	// Latency holds the sampled operations' wall-clock latencies in
	// nanoseconds.
	Latency instrument.HistSnapshot
	// Retries holds the sampled operations' failed-C&S counts.
	Retries instrument.HistSnapshot
}

// Snapshot sums all shards into a typed snapshot.
func (r *Recorder) Snapshot() Snapshot {
	var s Snapshot
	var vec instrument.Vector
	for i := range r.shards {
		sh := &r.shards[i]
		for c := range vec {
			vec[c] += sh.counters[c].Load()
		}
		for op := range sh.ops {
			o, so := &sh.ops[op], &s.Ops[op]
			so.Count += o.count.Load()
			so.Latency = so.Latency.Merge(o.latency.Snapshot())
			so.Retries = so.Retries.Merge(o.retries.Snapshot())
		}
	}
	s.Counters.FromVector(vec)
	return s
}

// Delta returns the change since the previous Delta call (or since the
// recorder's creation, for the first call). Because every underlying
// counter is monotonic, every field of the result is non-negative.
func (r *Recorder) Delta() Snapshot {
	r.deltaMu.Lock()
	defer r.deltaMu.Unlock()
	cur := r.Snapshot()
	d := cur.Sub(r.last)
	r.last = cur
	return d
}

// Sub returns s - prev field-by-field. It is the caller's job to pass a
// genuinely earlier snapshot of the same recorder; underflow saturates to
// zero so a slightly torn pair of snapshots cannot produce wrap-around
// garbage.
func (s Snapshot) Sub(prev Snapshot) Snapshot {
	var d Snapshot
	cur, old := s.Counters.Vector(), prev.Counters.Vector()
	var vec instrument.Vector
	for i := range vec {
		vec[i] = sub64(cur[i], old[i])
	}
	d.Counters.FromVector(vec)
	for op := range s.Ops {
		o, p := &s.Ops[op], &prev.Ops[op]
		d.Ops[op] = OpSnapshot{
			Count:   sub64(o.Count, p.Count),
			Latency: o.Latency.Sub(p.Latency),
			Retries: o.Retries.Sub(p.Retries),
		}
	}
	return d
}

func sub64(a, b uint64) uint64 {
	if a < b {
		return 0
	}
	return a - b
}

// TotalOps returns the number of completed operations across all kinds.
func (s Snapshot) TotalOps() uint64 {
	var n uint64
	for op := range s.Ops {
		n += s.Ops[op].Count
	}
	return n
}

// EssentialStepsPerOp returns the mean billed steps per completed
// operation, the quantity the paper bounds by O(n(S) + c(S)).
func (s Snapshot) EssentialStepsPerOp() float64 {
	n := s.TotalOps()
	if n == 0 {
		return 0
	}
	return float64(s.Counters.EssentialSteps()) / float64(n)
}
