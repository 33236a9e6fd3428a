package server

import (
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/instrument"
	"repro/internal/telemetry"
)

// Obs is the server's request-observability state: per-verb latency
// histograms (read-complete to write-flushed, with coalesced-batch size
// as a dimension), per-verb batch-size histograms, a queue-wait
// histogram, and a lock-free ring of sampled operation traces. It turns
// the paper's cost split O(n(S) + c(S)) into live serving-path numbers:
// the latency histograms show the totals and tails, and a sampled trace
// attributes one operation's cost to its components — CAS attempts and
// backoff waits are the contention term c(S), finger hits/misses and
// essential steps the traversal term n(S).
//
// Attach to a Server with SetObs before serving. All recording methods
// are lock-free, allocation-free, and safe for concurrent use; reading
// (snapshots, Prometheus rendering, the trace handler) can run while
// connections record.
type Obs struct {
	seq        atomic.Uint64
	sampleMask uint64
	slowNanos  int64
	keyMask    int64
	ring       *instrument.TraceRing

	lat   [NumVerbs][NumBatchClasses]instrument.Hist
	batch [NumVerbs]instrument.Hist
	queue instrument.Hist
	flush instrument.Hist
}

// ObsConfig bounds an Obs. The zero value is usable: every field falls
// back to the default documented on it.
type ObsConfig struct {
	// SampleEvery is the trace sampling period: one unit of work (a point
	// command or one coalesced batch) in every SampleEvery is traced with
	// exact step attribution. Rounded up to a power of two; 1 traces every
	// unit (default 64).
	SampleEvery int
	// SlowThreshold is the store-execution wall time above which a unit is
	// always traced (and counted in cmds_slow), sampled or not
	// (default 10ms).
	SlowThreshold time.Duration
	// TraceCap is the trace ring capacity, rounded up to a power of two
	// (default 1024).
	TraceCap int
	// KeyMaskBits is how many low key bits are zeroed in trace records, so
	// a trace names a key neighbourhood rather than an exact key
	// (default 8).
	KeyMaskBits int
}

// NewObs returns an Obs with the given config.
func NewObs(cfg ObsConfig) *Obs {
	if cfg.SampleEvery <= 0 {
		cfg.SampleEvery = 64
	}
	period := 1
	for period < cfg.SampleEvery {
		period <<= 1
	}
	if cfg.SlowThreshold <= 0 {
		cfg.SlowThreshold = 10 * time.Millisecond
	}
	if cfg.TraceCap <= 0 {
		cfg.TraceCap = 1024
	}
	if cfg.KeyMaskBits <= 0 {
		cfg.KeyMaskBits = 8
	}
	if cfg.KeyMaskBits > 62 {
		cfg.KeyMaskBits = 62
	}
	o := &Obs{
		slowNanos: cfg.SlowThreshold.Nanoseconds(),
		keyMask:   int64(1)<<cfg.KeyMaskBits - 1,
		ring:      instrument.NewTraceRing(cfg.TraceCap),
	}
	o.sampleMask = uint64(period - 1)
	return o
}

// sampleNext reports whether the next unit of work is trace-sampled.
func (o *Obs) sampleNext() bool { return o.seq.Add(1)&o.sampleMask == 0 }

// maskKey reduces a key to its trace neighbourhood prefix.
func (o *Obs) maskKey(key int) int64 { return int64(key) &^ o.keyMask }

// Batch-size classes: the coalescing dimension of the latency histograms.
// Class 0 is an un-coalesced point command; the others are coalesced runs
// by size. Interned labels, like the verb labels, keep recording 0-alloc.
const NumBatchClasses = 4

var batchClassLabels = [NumBatchClasses]string{"1", "2-15", "16-63", "64+"}

// batchClass maps a unit's command count to its class index.
func batchClass(n int) int {
	switch {
	case n <= 1:
		return 0
	case n < 16:
		return 1
	case n < 64:
		return 2
	default:
		return 3
	}
}

// recordLatency records n commands of verb v, executed as one unit of
// class class, each observing the same read-complete-to-write-flushed
// latency nanos.
func (o *Obs) recordLatency(v Verb, class int, nanos int64, n uint64) {
	o.lat[v][class].RecordN(nanos, n)
}

// recordBatch records one unit's command count under its verb.
func (o *Obs) recordBatch(v Verb, n int) { o.batch[v].Record(int64(n)) }

// recordQueueWait records one run's wait from read-complete to execute-
// start. One goroutine reads and executes a connection's runs, so the
// wait is near zero; a value that is not names a cost the structure does
// not cause.
func (o *Obs) recordQueueWait(nanos int64) { o.queue.Record(nanos) }

// recordFlush records the byte size of one vectored reply flush — the
// payoff histogram of write coalescing: a healthy pipelined workload
// shows flushes many replies wide, an interactive one hovers near a
// single reply's size.
func (o *Obs) recordFlush(bytes int64) { o.flush.Record(bytes) }

// VerbLatency returns the latency snapshot of one verb, merged across
// batch-size classes.
func (o *Obs) VerbLatency(v Verb) instrument.HistSnapshot {
	s := o.lat[v][0].Snapshot()
	for c := 1; c < NumBatchClasses; c++ {
		s = s.Merge(o.lat[v][c].Snapshot())
	}
	return s
}

// QueueWait returns the queue-wait snapshot: per run, read-complete to
// execute-start on the connection's goroutine.
func (o *Obs) QueueWait() instrument.HistSnapshot { return o.queue.Snapshot() }

// TraceSnapshot returns up to max of the newest trace records (0 = all
// retained), newest first.
func (o *Obs) TraceSnapshot(max int) []instrument.TraceRecord {
	return o.ring.Snapshot(max)
}

// WritePrometheus renders the observability state in Prometheus text
// exposition format: cumulative-le histograms (the coarse per-octave
// bucket view — quantile math keeps the full sub-bucket resolution) for
// per-verb latency by batch class, per-verb batch size, and queue wait.
// Series render only for (verb, class) combinations that have data, so
// the output stays proportional to the traffic actually seen.
func (o *Obs) WritePrometheus(w io.Writer) error {
	var b []byte
	b = append(b, "# HELP lockfree_server_cmd_latency_seconds Server-side command latency (read-complete to write-flushed) by verb and coalesced-batch size class.\n"...)
	b = append(b, "# TYPE lockfree_server_cmd_latency_seconds histogram\n"...)
	for v := 0; v < NumVerbs; v++ {
		for c := 0; c < NumBatchClasses; c++ {
			s := o.lat[v][c].Snapshot()
			if s.Count == 0 {
				continue
			}
			labels := `verb="` + Verb(v).Label() + `",batch="` + batchClassLabels[c] + `"`
			b = s.AppendPrometheus(b, "lockfree_server_cmd_latency_seconds", labels, true)
		}
	}

	b = append(b, "# HELP lockfree_server_cmd_batch_size Commands per executed unit of work by verb (1 = un-coalesced).\n"...)
	b = append(b, "# TYPE lockfree_server_cmd_batch_size histogram\n"...)
	for v := 0; v < NumVerbs; v++ {
		s := o.batch[v].Snapshot()
		if s.Count == 0 {
			continue
		}
		b = s.AppendPrometheus(b, "lockfree_server_cmd_batch_size", `verb="`+Verb(v).Label()+`"`, false)
	}

	b = append(b, "# HELP lockfree_server_queue_wait_seconds Wait of each pipelined run from read-complete to execute-start.\n"...)
	b = append(b, "# TYPE lockfree_server_queue_wait_seconds histogram\n"...)
	if s := o.queue.Snapshot(); s.Count > 0 {
		b = s.AppendPrometheus(b, "lockfree_server_queue_wait_seconds", "", true)
	}

	b = append(b, "# HELP lockfree_server_flush_bytes Reply bytes per vectored flush (one flush per coalesced run).\n"...)
	b = append(b, "# TYPE lockfree_server_flush_bytes histogram\n"...)
	if s := o.flush.Snapshot(); s.Count > 0 {
		b = s.AppendPrometheus(b, "lockfree_server_flush_bytes", "", false)
	}

	b = append(b, "# HELP lockfree_server_trace_records_total Operation trace records written to the sampling ring.\n"...)
	b = append(b, "# TYPE lockfree_server_trace_records_total counter\n"...)
	b = append(b, "lockfree_server_trace_records_total "+strconv.FormatUint(o.ring.Written(), 10)+"\n"...)
	_, err := w.Write(b)
	return err
}

// traceJSON is the wire form of one trace record at /debug/trace.
type traceJSON struct {
	Verb           string `json:"verb"`
	Sampled        bool   `json:"sampled"`
	Slow           bool   `json:"slow"`
	KeyPrefix      int64  `json:"key_prefix"`
	Batch          int64  `json:"batch"`
	WallNanos      int64  `json:"wall_ns"`
	QueueNanos     int64  `json:"queue_ns"`
	AgeNanos       int64  `json:"age_ns"`
	CASAttempts    uint64 `json:"cas_attempts"`
	CASSuccesses   uint64 `json:"cas_successes"`
	BackoffWaits   uint64 `json:"backoff_waits"`
	FingerHits     uint64 `json:"finger_hits"`
	FingerMisses   uint64 `json:"finger_misses"`
	EssentialSteps uint64 `json:"essential_steps"`
}

// TraceHandler serves the sampled trace ring as JSON: an object with the
// ring's totals and the retained records newest-first. ?n=K limits the
// response to the K newest records.
func (o *Obs) TraceHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		max := 0
		if q := r.URL.Query().Get("n"); q != "" {
			n, err := strconv.Atoi(q)
			if err != nil || n < 0 {
				http.Error(w, "n must be a non-negative integer", http.StatusBadRequest)
				return
			}
			max = n
		}
		recs := o.ring.Snapshot(max)
		now := telemetry.Nanotime()
		out := struct {
			Written  uint64      `json:"written"`
			Capacity int         `json:"capacity"`
			Records  []traceJSON `json:"records"`
		}{Written: o.ring.Written(), Capacity: o.ring.Cap(), Records: make([]traceJSON, 0, len(recs))}
		for _, rec := range recs {
			out.Records = append(out.Records, traceJSON{
				Verb:           Verb(rec.Verb).Label(),
				Sampled:        rec.Sampled,
				Slow:           rec.Slow,
				KeyPrefix:      rec.Key,
				Batch:          rec.Batch,
				WallNanos:      rec.WallNanos,
				QueueNanos:     rec.QueueNanos,
				AgeNanos:       now - rec.At,
				CASAttempts:    rec.CASAttempts,
				CASSuccesses:   rec.CASSuccesses,
				BackoffWaits:   rec.BackoffWaits,
				FingerHits:     rec.FingerHits,
				FingerMisses:   rec.FingerMisses,
				EssentialSteps: rec.EssentialSteps,
			})
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(out)
	})
}

// trace assembles and writes one trace record from a finished unit.
// stats is nil for units captured without attribution (slow-only capture,
// or verbs the store cannot attribute).
func (o *Obs) trace(v Verb, key int, batch int, wall, queueWait int64, sampled, slow bool, stats *core.OpStats) {
	rec := instrument.TraceRecord{
		At:         telemetry.Nanotime(),
		Verb:       uint32(v),
		Sampled:    sampled,
		Slow:       slow,
		Key:        o.maskKey(key),
		Batch:      int64(batch),
		WallNanos:  wall,
		QueueNanos: queueWait,
	}
	if stats != nil {
		rec.CASAttempts = stats.CASAttempts
		rec.CASSuccesses = stats.CASSuccesses
		rec.BackoffWaits = stats.BackoffWaits
		rec.FingerHits = stats.FingerHits
		rec.FingerMisses = stats.FingerMisses
		rec.EssentialSteps = stats.EssentialSteps()
	}
	o.ring.Add(&rec)
}
