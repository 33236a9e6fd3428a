package instrument

import (
	"math/bits"
	"strconv"
	"sync/atomic"
)

// Hist is a lock-free log-bucketed (HDR-style) histogram of non-negative
// int64 values, and the repo's one histogram type: the serving layer's
// request observability, the WAL's fsync times and the structures'
// per-operation latency and retry histograms all record into it.
// Recording is one bucket computation (a handful of bit operations) plus
// two atomic adds, the sum and the bucket — no allocation, no lock, no
// clock read — so it can sit on the per-command hot path. The count is
// not a word of its own: a snapshot sums the buckets, so its Count always
// equals its +Inf bucket.
//
// Bucket layout: values 0..15 get exact buckets; above that, each power
// of two is split into four sub-buckets (two mantissa bits), bounding the
// relative quantization error at ~12.5% — the HDR-histogram trade-off —
// up to ~2^45 (≈ 9.7 hours in nanoseconds). Larger values clamp into the
// last bucket. The same layout serves nanosecond latencies, queue waits,
// coalesced-batch sizes and failed-C&S counts; only the unit
// interpretation differs.
//
// The zero value is ready to use. All methods are safe for concurrent
// use. A Hist is not striped: concurrent Record calls land on independent
// bucket words almost always, but share the sum word. Writers
// hot enough for that to matter keep one Hist per stripe, as the
// telemetry recorder does, and merge the snapshots.
type Hist struct {
	sum     atomic.Uint64
	buckets [HistNumBuckets]atomic.Uint64
}

// Histogram geometry. histExact small values get exact buckets;
// histSubBits mantissa bits split every octave above into 1<<histSubBits
// sub-buckets; histMaxExp caps the value range.
const (
	histExact   = 16 // values 0..15 recorded exactly
	histSubBits = 2  // 4 sub-buckets per power of two
	histSub     = 1 << histSubBits
	histMaxExp  = 45 // top octave ≈ 9.7h in ns; larger values overflow

	// HistNumBuckets is the fixed bucket count of every Hist; the final
	// bucket is the open-ended overflow cell.
	HistNumBuckets = histExact + (histMaxExp-histExactExp)*histSub + 1

	histExactExp = 4 // log2(histExact)
)

// histBucket maps a value to its bucket index.
func histBucket(v int64) int {
	if v < histExact {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 1 // e >= histExactExp
	if e >= histMaxExp {
		return HistNumBuckets - 1
	}
	sub := int(uint64(v)>>(e-histSubBits)) & (histSub - 1)
	return histExact + (e-histExactExp)*histSub + sub
}

// HistUpperBound returns the inclusive upper bound of bucket i: every
// recorded value v with HistUpperBound(i-1) < v <= HistUpperBound(i)
// lands in bucket i. The final (overflow) bucket has no bound — render it
// as +Inf; this function returns MaxInt64 for it.
func HistUpperBound(i int) int64 {
	if i < histExact {
		return int64(i)
	}
	if i >= HistNumBuckets-1 {
		return int64(^uint64(0) >> 1)
	}
	e := histExactExp + (i-histExact)/histSub
	sub := (i - histExact) % histSub
	// The bucket holds values whose top bits are 1<<e | sub<<(e-histSubBits);
	// its upper bound is the last value before the next sub-bucket.
	return (int64(histSub+sub+1) << (e - histSubBits)) - 1
}

// Record adds one observation. Negative values clamp to zero (defensive:
// a monotonic-clock regression must not corrupt a bucket index).
func (h *Hist) Record(v int64) {
	if v < 0 {
		v = 0
	}
	h.sum.Add(uint64(v))
	h.buckets[histBucket(v)].Add(1)
}

// RecordN adds n identical observations in one shot — the coalesced-run
// path, where every command in a run shares the run's wall latency.
func (h *Hist) RecordN(v int64, n uint64) {
	if n == 0 {
		return
	}
	if v < 0 {
		v = 0
	}
	h.sum.Add(uint64(v) * n)
	h.buckets[histBucket(v)].Add(n)
}

// RecordShare records k of the n members of a group that shared one
// observation, total: k samples in the bucket of total/n, and total·k/n
// added to the sum, so that k == n adds total exactly once. It is the
// recording of a unit of work that n operations paid for together, of
// which k are sampled. Negative totals clamp to zero.
func (h *Hist) RecordShare(total int64, n, k uint64) {
	if k == 0 || n == 0 {
		return
	}
	v := max(total, 0)
	sum := uint64(v) * k
	if n > 1 { // a group; a single operation skips the divisions
		v, sum = v/int64(n), sum/n
	}
	h.sum.Add(sum)
	h.buckets[histBucket(v)].Add(k)
}

// Snapshot copies the histogram's current state. Like the telemetry
// snapshots, it is consistent-enough: each word is read atomically, the
// set is not read under a global lock.
func (h *Hist) Snapshot() HistSnapshot {
	var s HistSnapshot
	s.Sum = h.sum.Load()
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
		s.Count += s.Buckets[i]
	}
	return s
}

// HistSnapshot is a point-in-time copy of a Hist.
type HistSnapshot struct {
	Count   uint64
	Sum     uint64
	Buckets [HistNumBuckets]uint64
}

// Sub returns s - prev field-by-field with saturating subtraction, for
// interval (delta) reporting. The caller must pass a genuinely earlier
// snapshot of the same histogram.
func (s HistSnapshot) Sub(prev HistSnapshot) HistSnapshot {
	d := HistSnapshot{Count: satSub(s.Count, prev.Count), Sum: satSub(s.Sum, prev.Sum)}
	for i := range s.Buckets {
		d.Buckets[i] = satSub(s.Buckets[i], prev.Buckets[i])
	}
	return d
}

// Merge returns the bucket-wise sum of s and o (same geometry always, the
// layout is fixed), for collapsing per-dimension histograms into one.
func (s HistSnapshot) Merge(o HistSnapshot) HistSnapshot {
	m := HistSnapshot{Count: s.Count + o.Count, Sum: s.Sum + o.Sum}
	for i := range s.Buckets {
		m.Buckets[i] = s.Buckets[i] + o.Buckets[i]
	}
	return m
}

func satSub(a, b uint64) uint64 {
	if a < b {
		return 0
	}
	return a - b
}

// Quantile returns the q-quantile (0 < q <= 1) of the snapshot, linearly
// interpolated inside the winning bucket. The last bucket reports its
// lower bound. ok is false when the histogram is empty.
func (s HistSnapshot) Quantile(q float64) (v int64, ok bool) {
	if s.Count == 0 {
		return 0, false
	}
	rank := q * float64(s.Count)
	var cum float64
	for i, c := range s.Buckets {
		if c == 0 {
			continue
		}
		prev := cum
		cum += float64(c)
		if cum < rank {
			continue
		}
		lo := int64(0)
		if i > 0 {
			lo = HistUpperBound(i-1) + 1
		}
		if i == HistNumBuckets-1 {
			return lo, true // clamp bucket: report its lower bound
		}
		hi := HistUpperBound(i)
		frac := (rank - prev) / float64(c)
		return lo + int64(frac*float64(hi-lo)), true
	}
	return HistUpperBound(HistNumBuckets - 1), true
}

// Mean returns the mean observation; 0 when empty.
func (s HistSnapshot) Mean() int64 {
	if s.Count == 0 {
		return 0
	}
	return int64(s.Sum / s.Count)
}

// Octaves collapses the snapshot to per-power-of-two buckets for
// rendering: OctaveBounds()[i] is the inclusive upper bound of the
// returned counts[i], and every recorded value above the last bound sits
// in the final (+Inf) cell. Exporters render this coarse view — a stable,
// compact le-set — while quantiles keep the full sub-bucket resolution.
func (s HistSnapshot) Octaves() [histMaxExp - histExactExp + 2]uint64 {
	var out [histMaxExp - histExactExp + 2]uint64
	for i, c := range s.Buckets {
		if c == 0 {
			continue
		}
		switch {
		case i < histExact:
			out[0] += c
		case i == HistNumBuckets-1:
			out[len(out)-1] += c
		default:
			out[1+(i-histExact)/histSub] += c
		}
	}
	return out
}

// NumOctaves is the length of Octaves()/OctaveBounds(); the final cell is
// the +Inf bucket.
const NumOctaves = histMaxExp - histExactExp + 2

// OctaveBounds returns the inclusive upper bounds of the octave view; the
// final cell has no bound (+Inf).
func OctaveBounds() [NumOctaves - 1]int64 {
	var out [NumOctaves - 1]int64
	out[0] = histExact - 1
	for e := histExactExp; e < histMaxExp; e++ {
		out[1+e-histExactExp] = int64(1)<<(e+1) - 1
	}
	return out
}

// AppendPrometheus appends s to b as one Prometheus histogram series over
// the octave view: cumulative le buckets, then _sum and _count. labels is
// the series' rendered label pairs without braces ("" for none); seconds
// renders nanosecond bounds and sums in seconds. An empty octave cell
// renders only when a later cell has data, keeping each series' bucket
// list short but still cumulative and +Inf-terminated. A series in units
// (seconds false) also renders each non-empty exact cell below 15 as its
// own bucket ahead of le="15", so small counts keep their exact cut: a
// retry histogram's le="0" is the share of operations without contention.
func (s HistSnapshot) AppendPrometheus(b []byte, name, labels string, seconds bool) []byte {
	format := func(v uint64) string {
		if seconds {
			return strconv.FormatFloat(float64(v)/1e9, 'g', -1, 64)
		}
		return strconv.FormatUint(v, 10)
	}
	sel, sep := "", ""
	if labels != "" {
		sel, sep = "{"+labels+"}", ","
	}
	bounds, oct := OctaveBounds(), s.Octaves()
	last := -1 // the last non-empty finite cell; buckets past it add nothing
	for i, c := range oct[:len(oct)-1] {
		if c != 0 {
			last = i
		}
	}
	if !seconds {
		var exact uint64
		for v, c := range s.Buckets[:histExact-1] {
			if c != 0 {
				exact += c
				b = append(b, name+"_bucket{"+labels+sep+`le="`+strconv.Itoa(v)+`"} `+strconv.FormatUint(exact, 10)+"\n"...)
			}
		}
	}
	var cum uint64
	for i := 0; i <= last; i++ {
		cum += oct[i]
		b = append(b, name+"_bucket{"+labels+sep+`le="`+format(uint64(bounds[i]))+`"} `+strconv.FormatUint(cum, 10)+"\n"...)
	}
	cum += oct[len(oct)-1]
	b = append(b, name+"_bucket{"+labels+sep+`le="+Inf"} `+strconv.FormatUint(cum, 10)+"\n"...)
	b = append(b, name+"_sum"+sel+" "+format(s.Sum)+"\n"...)
	return append(b, name+"_count"+sel+" "+strconv.FormatUint(s.Count, 10)+"\n"...)
}
