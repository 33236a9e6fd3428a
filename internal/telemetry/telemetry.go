// Package telemetry is the always-on observability core for the lock-free
// structures: sharded, cache-line-padded atomic counters over the
// essential-step vocabulary of internal/instrument (the paper's Section 3.4
// cost accounting), plus fixed-bucket latency and retry histograms per
// operation kind.
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
//     flush once, at completion, into a shard of atomic counters.
//   - Shards are padded to cache-line size and selected by a cheap
//     goroutine-affine hash, so concurrent flushes rarely contend on a line.
//   - Reading (Snapshot, Delta) sums the shards; readers never block
//     writers.
//
// The exporter layer (expvar, Prometheus text format) lives in the public
// package repro/lockfree/telemetry; this package has no HTTP or encoding
// dependencies.
package telemetry

import (
	"math/bits"
	"runtime"
	"sync"
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

// LatencyBuckets holds the fixed upper bounds of the operation-latency
// histogram. The final implicit bucket is +Inf. The range spans a cached
// Get on a tiny list (~100ns) to a badly descheduled operation (>100ms).
var LatencyBuckets = [...]time.Duration{
	250 * time.Nanosecond,
	500 * time.Nanosecond,
	1 * time.Microsecond,
	2500 * time.Nanosecond,
	5 * time.Microsecond,
	10 * time.Microsecond,
	25 * time.Microsecond,
	50 * time.Microsecond,
	100 * time.Microsecond,
	250 * time.Microsecond,
	500 * time.Microsecond,
	1 * time.Millisecond,
	5 * time.Millisecond,
	25 * time.Millisecond,
	100 * time.Millisecond,
}

// RetryBuckets holds the fixed upper bounds of the per-operation retry
// histogram, where a retry is a failed C&S (CASAttempts - CASSuccesses):
// the operation-local face of contention. The final implicit bucket is
// +Inf.
var RetryBuckets = [...]uint64{0, 1, 2, 4, 8, 16, 32, 64}

// NumLatencyBuckets and NumRetryBuckets include the +Inf bucket.
const (
	NumLatencyBuckets = len(LatencyBuckets) + 1
	NumRetryBuckets   = len(RetryBuckets) + 1
)

// latencyBucket returns the index of the bucket d falls in.
func latencyBucket(d time.Duration) int {
	for i, ub := range LatencyBuckets {
		if d <= ub {
			return i
		}
	}
	return len(LatencyBuckets)
}

// retryBucket returns the index of the bucket r falls in.
func retryBucket(r uint64) int {
	for i, ub := range RetryBuckets {
		if r <= ub {
			return i
		}
	}
	return len(RetryBuckets)
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

// NewRecorder returns a Recorder with the given number of shards, rounded
// up to a power of two. shards <= 0 selects a default sized to the
// machine's parallelism.
func NewRecorder(shards int) *Recorder {
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0) * 2
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	const maxShards = 256
	if n > maxShards {
		n = maxShards
	}
	return &Recorder{
		shards:     make([]shard, n),
		mask:       uint32(n - 1),
		sampleMask: DefaultSampleEvery - 1,
	}
}

// Shards returns the shard count (for tests and diagnostics).
func (r *Recorder) Shards() int { return len(r.shards) }

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

// RecordOp flushes one completed operation into the recorder: its
// essential-step counters, one latency sample, and one retry sample
// (retries = failed C&S attempts). st may be nil for operations that carry
// no step counters (e.g. iteration).
func (r *Recorder) RecordOp(op Op, st *instrument.OpStats, elapsed time.Duration) {
	sh := &r.shards[shardIndex()&r.mask]
	var retries uint64
	if st != nil {
		for i, v := range st.Vector() {
			if v != 0 {
				sh.counters[i].Add(v)
			}
		}
		retries = st.CASAttempts - st.CASSuccesses
	}
	o := &sh.ops[op]
	o.count.Add(1)
	if elapsed < 0 {
		elapsed = 0
	}
	o.latencySum.Add(uint64(elapsed.Nanoseconds()))
	o.latency[latencyBucket(elapsed)].Add(1)
	o.retrySum.Add(retries)
	o.retries[retryBucket(retries)].Add(1)
}

// AddCounter adds n directly to one vocabulary counter, bypassing the
// per-operation flush path. Layers above the core structures (e.g. the
// range-sharded map's routing accounting) use it for counters that do not
// belong to any single inner operation's OpStats. Exact, never sampled.
func (r *Recorder) AddCounter(c instrument.Counter, n uint64) {
	if n == 0 {
		return
	}
	r.shards[shardIndex()&r.mask].counters[c].Add(n)
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

// OpToken carries per-operation state from StartOp to FinishOp. Tokens
// must not outlive the operation or be reused.
type OpToken struct {
	sh    *shard
	start int64 // Nanotime at StartOp, or -1 when the op is not sampled
}

// Sampled reports whether this operation was selected for full recording:
// step accounting, latency, and retries. Callers skip collecting step
// counters entirely for unsampled tokens.
func (t OpToken) Sampled() bool { return t.start >= 0 }

// StartOp begins the low-overhead recording path used by the structures'
// hot wrappers: it pins the caller's shard and decides — every sampleMask+1
// completed ops of this kind on this shard — whether this operation is
// fully recorded (step counters, latency, retries). The unsampled path
// costs one atomic load here and one atomic add in FinishOp: no clock
// read, no step accounting. The sampling decision reads the completed-op
// count racily; under concurrency the period is approximate, which is fine
// for sampled statistics.
func (r *Recorder) StartOp(op Op) OpToken {
	sh := &r.shards[shardIndex()&r.mask]
	tok := OpToken{sh: sh, start: -1}
	if (sh.ops[op].count.Load()+1)&r.sampleMask == 0 {
		tok.start = Nanotime()
	}
	return tok
}

// FinishOp completes an operation begun with StartOp. The completed-op
// count is recorded exactly, every time. For sampled tokens the
// essential-step counters are flushed scaled by the sampling period — an
// unbiased estimator of the true totals, and exact at period 1 — and one
// latency and one retry sample land in the histograms. st is ignored (and
// normally nil) for unsampled tokens.
func (r *Recorder) FinishOp(tok OpToken, op Op, st *instrument.OpStats) {
	sh := tok.sh
	o := &sh.ops[op]
	o.count.Add(1)
	if tok.start < 0 {
		return
	}
	scale := r.sampleMask + 1
	var retries uint64
	if st != nil {
		for i, v := range st.Vector() {
			if v != 0 {
				sh.counters[i].Add(v * scale)
			}
		}
		retries = st.CASAttempts - st.CASSuccesses
	}
	el := Nanotime() - tok.start
	if el < 0 {
		el = 0
	}
	o.latencySum.Add(uint64(el))
	o.latency[latencyBucket(time.Duration(el))].Add(1)
	o.retrySum.Add(retries)
	o.retries[retryBucket(retries)].Add(1)
}

// GroupToken carries one group's state from StartGroup to FinishGroup.
type GroupToken struct {
	sh      *shard
	start   int64  // Nanotime at StartGroup, or -1 when no member is sampled
	sampled uint64 // members that fall on the sampling period
}

// Sampled reports whether the group was selected for full recording; see
// OpToken.Sampled.
func (t GroupToken) Sampled() bool { return t.start >= 0 }

// StartGroup begins the recording of n operations of one kind that run as
// one unit and cannot be told apart while they run - the keys of a batched
// Get going down the skip list together. It is StartOp's rule applied to
// every member: the members take the shard's next n places in the
// completed-op count, and those whose place is a multiple of the sampling
// period are sampled. A group without a sampled member pays what an
// unsampled operation pays; at period 1 every member is sampled.
func (r *Recorder) StartGroup(op Op, n int) GroupToken {
	sh := &r.shards[shardIndex()&r.mask]
	tok := GroupToken{sh: sh, start: -1}
	place := sh.ops[op].count.Load() & r.sampleMask
	tok.sampled = (place + uint64(n)) >> bits.Len64(r.sampleMask)
	if tok.sampled > 0 {
		tok.start = Nanotime()
	}
	return tok
}

// FinishGroup completes a group begun with StartGroup. The completed-op
// count grows by n exactly. A sampled group is recorded ONCE: its members
// shared their steps, so there is one step vector, st, and one elapsed
// time for all n. Each member is taken to have paid an n-th of both: the
// sampled members add their share of the vector, scaled by the period as
// in FinishOp, and one latency and one retry sample each, in the bucket
// of elapsed / n. At period 1 that is the exact vector added once, the
// elapsed time added once to the latency sum, and n samples.
func (r *Recorder) FinishGroup(tok GroupToken, op Op, n int, st *instrument.OpStats) {
	sh := tok.sh
	o := &sh.ops[op]
	members := uint64(n)
	o.count.Add(members)
	if tok.start < 0 {
		return
	}
	weight := tok.sampled * (r.sampleMask + 1)
	var retries uint64
	if st != nil {
		for i, v := range st.Vector() {
			if v != 0 {
				sh.counters[i].Add(v * weight / members)
			}
		}
		retries = st.CASAttempts - st.CASSuccesses
	}
	el := uint64(max(Nanotime()-tok.start, 0))
	o.latencySum.Add(el * tok.sampled / members)
	o.latency[latencyBucket(time.Duration(el/members))].Add(tok.sampled)
	o.retrySum.Add(retries * tok.sampled / members)
	o.retries[retryBucket(retries/members)].Add(tok.sampled)
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
// exact; the latency/retry fields cover only the sampled subset of
// operations (every operation, when the recorder samples every 1).
type OpSnapshot struct {
	// Count is the number of completed operations of this kind.
	Count uint64
	// LatencySumNanos is the summed wall-clock latency in nanoseconds of
	// the sampled operations.
	LatencySumNanos uint64
	// RetrySum is the summed failed-C&S count of the sampled operations.
	RetrySum uint64
	// Latency holds per-bucket (not cumulative) sample counts; bucket i
	// covers latencies <= LatencyBuckets[i], the last bucket is +Inf.
	Latency [NumLatencyBuckets]uint64
	// Retries holds per-bucket failed-C&S counts, bounds in RetryBuckets.
	Retries [NumRetryBuckets]uint64
}

// LatencySamples returns the number of operations whose latency was
// sampled into the histogram (equals Count at sampling period 1).
func (o OpSnapshot) LatencySamples() uint64 {
	var n uint64
	for _, c := range o.Latency {
		n += c
	}
	return n
}

// RetrySamples returns the number of operations whose retry count was
// sampled into the histogram.
func (o OpSnapshot) RetrySamples() uint64 {
	var n uint64
	for _, c := range o.Retries {
		n += c
	}
	return n
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
			o := &sh.ops[op]
			s.Ops[op].Count += o.count.Load()
			s.Ops[op].LatencySumNanos += o.latencySum.Load()
			s.Ops[op].RetrySum += o.retrySum.Load()
			for b := range o.latency {
				s.Ops[op].Latency[b] += o.latency[b].Load()
			}
			for b := range o.retries {
				s.Ops[op].Retries[b] += o.retries[b].Load()
			}
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
		d.Ops[op].Count = sub64(s.Ops[op].Count, prev.Ops[op].Count)
		d.Ops[op].LatencySumNanos = sub64(s.Ops[op].LatencySumNanos, prev.Ops[op].LatencySumNanos)
		d.Ops[op].RetrySum = sub64(s.Ops[op].RetrySum, prev.Ops[op].RetrySum)
		for b := range s.Ops[op].Latency {
			d.Ops[op].Latency[b] = sub64(s.Ops[op].Latency[b], prev.Ops[op].Latency[b])
		}
		for b := range s.Ops[op].Retries {
			d.Ops[op].Retries[b] = sub64(s.Ops[op].Retries[b], prev.Ops[op].Retries[b])
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

// LatencyQuantile returns the q-quantile (0 < q <= 1) of the operation's
// latency histogram, linearly interpolated inside the winning bucket. The
// +Inf bucket reports its lower bound. ok is false when the histogram is
// empty.
func (o OpSnapshot) LatencyQuantile(q float64) (d time.Duration, ok bool) {
	var total uint64
	for _, c := range o.Latency {
		total += c
	}
	if total == 0 {
		return 0, false
	}
	rank := q * float64(total)
	var cum float64
	for i, c := range o.Latency {
		if c == 0 {
			continue
		}
		prev := cum
		cum += float64(c)
		if cum < rank {
			continue
		}
		lo := time.Duration(0)
		if i > 0 {
			lo = LatencyBuckets[i-1]
		}
		if i == len(LatencyBuckets) {
			return lo, true // +Inf bucket: report its lower bound
		}
		hi := LatencyBuckets[i]
		frac := (rank - prev) / float64(c)
		return lo + time.Duration(frac*float64(hi-lo)), true
	}
	return LatencyBuckets[len(LatencyBuckets)-1], true
}

// MeanLatency returns the mean latency of the sampled operations; 0 when
// the histogram is empty.
func (o OpSnapshot) MeanLatency() time.Duration {
	n := o.LatencySamples()
	if n == 0 {
		return 0
	}
	return time.Duration(o.LatencySumNanos / n)
}
