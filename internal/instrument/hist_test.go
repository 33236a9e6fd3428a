package instrument

import (
	"math"
	"sync"
	"testing"
)

func TestHistBucketGeometry(t *testing.T) {
	// Exact range: identity.
	for v := int64(0); v < histExact; v++ {
		if got := histBucket(v); got != int(v) {
			t.Fatalf("histBucket(%d) = %d, want %d", v, got, v)
		}
		if got := HistUpperBound(int(v)); got != v {
			t.Fatalf("HistUpperBound(%d) = %d, want %d", v, got, v)
		}
	}
	// Negative values clamp into bucket 0.
	if histBucket(-5) != 0 {
		t.Fatalf("negative value must clamp to bucket 0")
	}
	// Buckets are contiguous and ordered: every value in
	// (HistUpperBound(i-1), HistUpperBound(i)] maps to bucket i.
	for i := 1; i < HistNumBuckets-1; i++ {
		lo, hi := HistUpperBound(i-1)+1, HistUpperBound(i)
		if lo > hi {
			t.Fatalf("bucket %d empty: lo %d > hi %d", i, lo, hi)
		}
		for _, v := range []int64{lo, hi, lo + (hi-lo)/2} {
			if got := histBucket(v); got != i {
				t.Fatalf("histBucket(%d) = %d, want %d (bounds %d..%d)", v, got, i, lo, hi)
			}
		}
	}
	// Relative quantization error stays under 2^-histSubBits.
	for _, v := range []int64{100, 1000, 12345, 1 << 20, 1<<40 + 12345} {
		hi := HistUpperBound(histBucket(v))
		lo := HistUpperBound(histBucket(v)-1) + 1
		if rel := float64(hi-lo) / float64(lo); rel > 1.0/float64(histSub)+1e-9 {
			t.Fatalf("bucket width for %d too wide: rel error %f", v, rel)
		}
	}
	// Values past the top octave land in the dedicated overflow bucket,
	// whose bound renders as +Inf.
	if histBucket(1<<uint(histMaxExp)) != HistNumBuckets-1 {
		t.Fatalf("2^%d must overflow", histMaxExp)
	}
	if histBucket(math.MaxInt64) != HistNumBuckets-1 {
		t.Fatalf("MaxInt64 must overflow")
	}
	if HistUpperBound(HistNumBuckets-1) != math.MaxInt64 {
		t.Fatalf("overflow bound must be MaxInt64")
	}
	// The last finite bucket is distinct from the overflow bucket.
	top := int64(1)<<uint(histMaxExp) - 1
	if got := histBucket(top); got != HistNumBuckets-2 {
		t.Fatalf("histBucket(2^%d-1) = %d, want %d", histMaxExp, got, HistNumBuckets-2)
	}
}

func TestHistRecordAndQuantile(t *testing.T) {
	var h Hist
	if _, ok := h.Snapshot().Quantile(0.5); ok {
		t.Fatal("empty histogram must report !ok")
	}
	for v := int64(1); v <= 1000; v++ {
		h.Record(v)
	}
	s := h.Snapshot()
	if s.Count != 1000 || s.Sum != 500500 {
		t.Fatalf("count/sum = %d/%d", s.Count, s.Sum)
	}
	if m := s.Mean(); m != 500 {
		t.Fatalf("mean = %d", m)
	}
	for _, tc := range []struct {
		q    float64
		want int64
	}{{0.5, 500}, {0.99, 990}, {0.999, 999}} {
		got, ok := s.Quantile(tc.q)
		if !ok {
			t.Fatalf("q%v !ok", tc.q)
		}
		// Log bucketing guarantees ~12.5% relative error.
		if math.Abs(float64(got-tc.want)) > 0.13*float64(tc.want) {
			t.Fatalf("q%v = %d, want ~%d", tc.q, got, tc.want)
		}
	}
}

func TestHistRecordN(t *testing.T) {
	var a, b Hist
	for i := 0; i < 7; i++ {
		a.Record(300)
	}
	b.RecordN(300, 7)
	b.RecordN(300, 0) // no-op
	if a.Snapshot() != b.Snapshot() {
		t.Fatalf("RecordN(v,7) must equal 7x Record(v)")
	}
}

// TestHistRecordShare: k of a group of n that shared one observation land
// k samples in the bucket of the n-th share, and add their share of the
// total to the sum — the whole total, exactly once, when k == n.
func TestHistRecordShare(t *testing.T) {
	var all Hist
	all.RecordShare(1300, 13, 13)
	if s := all.Snapshot(); s.Count != 13 || s.Sum != 1300 || s.Buckets[histBucket(100)] != 13 {
		t.Fatalf("k = n: count %d, sum %d, %d in the bucket of 100; want 13, 1300, 13", s.Count, s.Sum, s.Buckets[histBucket(100)])
	}
	var some Hist
	some.RecordShare(1300, 13, 2)
	if s := some.Snapshot(); s.Count != 2 || s.Sum != 200 || s.Buckets[histBucket(100)] != 2 {
		t.Fatalf("k < n: count %d, sum %d, %d in the bucket of 100; want 2, 200, 2", s.Count, s.Sum, s.Buckets[histBucket(100)])
	}
	// Shares that do not divide evenly round down in both bucket and sum.
	var odd Hist
	odd.RecordShare(5, 13, 13)
	if s := odd.Snapshot(); s.Count != 13 || s.Sum != 5 || s.Buckets[0] != 13 {
		t.Fatalf("5 over 13: %d samples, sum %d, %d in cell 0; want 13, 5, 13", s.Count, s.Sum, s.Buckets[0])
	}
	// A group of one is Record; nothing sampled, or a negative total, is
	// harmless.
	var one, rec Hist
	one.RecordShare(3000, 1, 1)
	rec.Record(3000)
	one.RecordShare(3000, 4, 0)
	if one.Snapshot() != rec.Snapshot() {
		t.Fatal("RecordShare(v, 1, 1) must equal Record(v)")
	}
	var neg Hist
	neg.RecordShare(-7, 2, 2)
	if s := neg.Snapshot(); s.Count != 2 || s.Sum != 0 || s.Buckets[0] != 2 {
		t.Fatalf("negative total: %+v", s)
	}
}

// TestHistAppendPrometheusExactCells: a series in units renders its
// non-empty exact cells below 15 as their own buckets, so a count of zero
// keeps its own le="0"; a series in seconds renders the octaves alone.
func TestHistAppendPrometheusExactCells(t *testing.T) {
	var h Hist
	for _, v := range []int64{0, 0, 3, 40} {
		h.Record(v)
	}
	s := h.Snapshot()
	units := `x_bucket{op="a",le="0"} 2
x_bucket{op="a",le="3"} 3
x_bucket{op="a",le="15"} 3
x_bucket{op="a",le="31"} 3
x_bucket{op="a",le="63"} 4
x_bucket{op="a",le="+Inf"} 4
x_sum{op="a"} 43
x_count{op="a"} 4
`
	if got := string(s.AppendPrometheus(nil, "x", `op="a"`, false)); got != units {
		t.Fatalf("units series:\n%s\nwant:\n%s", got, units)
	}
	seconds := `x_bucket{le="1.5e-08"} 3
x_bucket{le="3.1e-08"} 3
x_bucket{le="6.3e-08"} 4
x_bucket{le="+Inf"} 4
x_sum 4.3e-08
x_count 4
`
	if got := string(s.AppendPrometheus(nil, "x", "", true)); got != seconds {
		t.Fatalf("seconds series:\n%s\nwant:\n%s", got, seconds)
	}
}

func TestHistSubAndMerge(t *testing.T) {
	var h Hist
	h.Record(10)
	h.Record(100)
	before := h.Snapshot()
	h.Record(1000)
	d := h.Snapshot().Sub(before)
	if d.Count != 1 || d.Buckets[histBucket(1000)] != 1 {
		t.Fatalf("delta wrong: %+v", d)
	}
	m := before.Merge(d)
	if m != h.Snapshot() {
		t.Fatalf("merge(before, delta) must equal after")
	}
	// Sub saturates rather than wrapping.
	if z := before.Sub(h.Snapshot()); z.Count != 0 || z.Sum != 0 {
		t.Fatalf("reversed Sub must saturate to zero, got %+v", z)
	}
}

func TestHistOctaves(t *testing.T) {
	var h Hist
	h.Record(3)             // exact cell
	h.Record(20)            // octave e=4
	h.Record(40)            // octave e=5
	h.Record(45)            // same octave
	h.Record(math.MaxInt64) // overflow
	oct := h.Snapshot().Octaves()
	bounds := OctaveBounds()
	if len(oct) != NumOctaves || len(bounds) != NumOctaves-1 {
		t.Fatalf("octave lengths: %d / %d", len(oct), len(bounds))
	}
	if bounds[0] != histExact-1 {
		t.Fatalf("first bound = %d", bounds[0])
	}
	if oct[0] != 1 || oct[1] != 1 || oct[2] != 2 || oct[NumOctaves-1] != 1 {
		t.Fatalf("octave counts wrong: %v", oct)
	}
	// Bounds are strictly increasing and the octave cells partition the
	// fine buckets: total octave count equals total count.
	var total uint64
	for _, c := range oct {
		total += c
	}
	if total != h.Snapshot().Count {
		t.Fatalf("octave total %d != count %d", total, h.Snapshot().Count)
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			t.Fatalf("bounds not increasing at %d: %d <= %d", i, bounds[i], bounds[i-1])
		}
	}
	// The last finite octave bound covers every finite bucket: a value at
	// the top of the last finite bucket is <= the last bound.
	if last := bounds[len(bounds)-1]; last != int64(1)<<uint(histMaxExp)-1 {
		t.Fatalf("last finite bound = %d", last)
	}
}

func TestHistConcurrent(t *testing.T) {
	var h Hist
	const goroutines, per = 8, 10000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			v := seed
			for i := 0; i < per; i++ {
				v = v*6364136223846793005 + 1442695040888963407
				h.Record(v & 0xfffff)
			}
		}(int64(g + 1))
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != goroutines*per {
		t.Fatalf("count = %d", s.Count)
	}
	var bucketTotal uint64
	for _, c := range s.Buckets {
		bucketTotal += c
	}
	if bucketTotal != s.Count {
		t.Fatalf("bucket total %d != count %d", bucketTotal, s.Count)
	}
}

func TestHistRecordZeroAlloc(t *testing.T) {
	var h Hist
	if n := testing.AllocsPerRun(1000, func() { h.Record(12345) }); n != 0 {
		t.Fatalf("Hist.Record allocates %v/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { h.RecordN(77, 3) }); n != 0 {
		t.Fatalf("Hist.RecordN allocates %v/op", n)
	}
}

func TestTraceRingBasics(t *testing.T) {
	r := NewTraceRing(3) // rounds up to 8
	if r.Cap() != 8 {
		t.Fatalf("cap = %d", r.Cap())
	}
	if got := r.Snapshot(0); len(got) != 0 {
		t.Fatalf("empty ring snapshot = %v", got)
	}
	for i := 1; i <= 5; i++ {
		r.Add(&TraceRecord{At: int64(i), Verb: uint32(i), Key: int64(i * 100),
			Batch: int64(i), WallNanos: int64(i * 10), Sampled: i%2 == 1, Slow: i == 4,
			CASAttempts: uint64(i), FingerHits: uint64(i * 2)})
	}
	if r.Written() != 5 {
		t.Fatalf("written = %d", r.Written())
	}
	recs := r.Snapshot(0)
	if len(recs) != 5 {
		t.Fatalf("len = %d", len(recs))
	}
	// Newest first.
	for i, rec := range recs {
		want := int64(5 - i)
		if rec.At != want || rec.Key != want*100 || rec.CASAttempts != uint64(want) ||
			rec.FingerHits != uint64(want*2) {
			t.Fatalf("rec[%d] = %+v, want At=%d", i, rec, want)
		}
		if rec.Sampled != (want%2 == 1) || rec.Slow != (want == 4) {
			t.Fatalf("rec[%d] flags wrong: %+v", i, rec)
		}
	}
	// max limits the result to the newest records.
	recs = r.Snapshot(2)
	if len(recs) != 2 || recs[0].At != 5 || recs[1].At != 4 {
		t.Fatalf("limited snapshot wrong: %+v", recs)
	}
}

func TestTraceRingOverwrite(t *testing.T) {
	r := NewTraceRing(8)
	for i := 1; i <= 20; i++ {
		r.Add(&TraceRecord{At: int64(i)})
	}
	recs := r.Snapshot(0)
	if len(recs) != 8 {
		t.Fatalf("len = %d", len(recs))
	}
	for i, rec := range recs {
		if rec.At != int64(20-i) {
			t.Fatalf("rec[%d].At = %d, want %d", i, rec.At, 20-i)
		}
	}
}

func TestTraceRingConcurrent(t *testing.T) {
	r := NewTraceRing(64)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// Writers keep At == WallNanos so readers can check
				// records for internal consistency (no torn slots).
				v := int64(id*1_000_000 + i)
				r.Add(&TraceRecord{At: v, WallNanos: v, CASAttempts: uint64(v)})
			}
		}(g)
	}
	for i := 0; i < 200; i++ {
		for _, rec := range r.Snapshot(0) {
			if rec.At != rec.WallNanos || uint64(rec.At) != rec.CASAttempts {
				t.Errorf("torn record: %+v", rec)
			}
		}
	}
	close(stop)
	wg.Wait()
}

func TestTraceRingAddZeroAlloc(t *testing.T) {
	r := NewTraceRing(1024)
	rec := &TraceRecord{At: 1, Verb: 2, WallNanos: 3}
	if n := testing.AllocsPerRun(1000, func() { r.Add(rec) }); n != 0 {
		t.Fatalf("TraceRing.Add allocates %v/op", n)
	}
}
