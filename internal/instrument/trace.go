package instrument

import "sync/atomic"

// TraceRing is a fixed-size lock-free ring buffer of operation trace
// records: the serving layer writes one record for every sampled (every
// Nth) operation and for every operation over its slow threshold, and the
// admin surface reads the newest records back as JSON. Writers never
// block and never allocate: a slot is claimed with one atomic add and
// filled with plain atomic stores; the ring overwrites its oldest records
// when full (a trace is a diagnostic sample, not an audit log).
//
// Torn reads are handled with a per-slot sequence pair: the writer bumps
// seq0 before filling the slot and seq1 after, both to the claim ticket,
// so a reader keeps a record only when seq0 == seq1 (the slot was not
// mid-overwrite while it copied). Every field is read and written through
// atomics, so concurrent trace writes and /debug/trace reads are
// race-detector clean.
type TraceRing struct {
	cursor atomic.Uint64
	slots  []traceSlot
	mask   uint64
}

// traceSlot is one ring cell; fields mirror TraceRecord.
type traceSlot struct {
	seq0, seq1 atomic.Uint64

	at         atomic.Int64
	verb       atomic.Uint32
	flags      atomic.Uint32
	key        atomic.Int64
	batch      atomic.Int64
	wallNanos  atomic.Int64
	queueNanos atomic.Int64
	stats      [5]atomic.Uint64 // cas attempts/successes, finger hit/miss, essential steps
}

// TraceRecord is one sampled operation trace. Wall latency is the
// operation's store-execution time; QueueNanos is how long the parsed
// run waited between its last read completing and its execution starting
// (the serving goroutine does both, so this is near zero).
// The step counters are exact for sampled records (the operation ran with
// a private stats sink attached) and zero for records captured only
// because they crossed the slow threshold.
type TraceRecord struct {
	// At is the Nanotime the record was written (process-local epoch;
	// only differences are meaningful — exporters render age instead).
	At int64
	// Verb is the operation's wire verb, encoded by the serving layer.
	Verb uint32
	// Sampled records ran with step attribution attached; Slow records
	// crossed the slow threshold (a record can be both).
	Sampled, Slow bool
	// Key is the operation's key locality hint: the first key of the
	// unit, low bits masked so a trace identifies a key neighbourhood,
	// not an exact key.
	Key int64
	// Batch is the number of commands the unit carried (1 for a point
	// command, the stretch length for a coalesced batch).
	Batch int64
	// WallNanos is the unit's store-execution wall time.
	WallNanos int64
	// QueueNanos is the read-complete-to-execute-start wait of the unit's run.
	QueueNanos int64
	// Per-unit step attribution (exact when Sampled).
	CASAttempts, CASSuccesses uint64
	FingerHits, FingerMisses  uint64
	EssentialSteps            uint64
}

const (
	traceFlagSampled = 1 << iota
	traceFlagSlow
)

// NewTraceRing returns a ring holding capacity records, rounded up to a
// power of two (minimum 8).
func NewTraceRing(capacity int) *TraceRing {
	n := 8
	for n < capacity {
		n <<= 1
	}
	return &TraceRing{slots: make([]traceSlot, n), mask: uint64(n - 1)}
}

// Cap returns the ring capacity.
func (r *TraceRing) Cap() int { return len(r.slots) }

// Written returns the total number of records ever written (the ring
// retains the last Cap of them).
func (r *TraceRing) Written() uint64 { return r.cursor.Load() }

// Add writes one record, overwriting the oldest when the ring is full.
// It never blocks and never allocates.
func (r *TraceRing) Add(rec *TraceRecord) {
	ticket := r.cursor.Add(1)
	s := &r.slots[(ticket-1)&r.mask]
	s.seq0.Store(ticket)
	s.at.Store(rec.At)
	s.verb.Store(rec.Verb)
	var flags uint32
	if rec.Sampled {
		flags |= traceFlagSampled
	}
	if rec.Slow {
		flags |= traceFlagSlow
	}
	s.flags.Store(flags)
	s.key.Store(rec.Key)
	s.batch.Store(rec.Batch)
	s.wallNanos.Store(rec.WallNanos)
	s.queueNanos.Store(rec.QueueNanos)
	s.stats[0].Store(rec.CASAttempts)
	s.stats[1].Store(rec.CASSuccesses)
	s.stats[2].Store(rec.FingerHits)
	s.stats[3].Store(rec.FingerMisses)
	s.stats[4].Store(rec.EssentialSteps)
	s.seq1.Store(ticket)
}

// Snapshot returns up to max of the newest records, newest first. Records
// overwritten while the snapshot runs are skipped (their sequence pair no
// longer matches the ticket the reader expected), so the result is always
// a set of internally consistent records.
func (r *TraceRing) Snapshot(max int) []TraceRecord {
	cur := r.cursor.Load()
	n := uint64(len(r.slots))
	if cur < n {
		n = cur
	}
	if max > 0 && uint64(max) < n {
		n = uint64(max)
	}
	out := make([]TraceRecord, 0, n)
	for i := uint64(0); i < n; i++ {
		ticket := cur - i
		s := &r.slots[(ticket-1)&r.mask]
		if s.seq1.Load() != ticket {
			continue // already overwritten (or mid-write) by a newer record
		}
		rec := TraceRecord{
			At:             s.at.Load(),
			Verb:           s.verb.Load(),
			Key:            s.key.Load(),
			Batch:          s.batch.Load(),
			WallNanos:      s.wallNanos.Load(),
			QueueNanos:     s.queueNanos.Load(),
			CASAttempts:    s.stats[0].Load(),
			CASSuccesses:   s.stats[1].Load(),
			FingerHits:     s.stats[2].Load(),
			FingerMisses:   s.stats[3].Load(),
			EssentialSteps: s.stats[4].Load(),
		}
		flags := s.flags.Load()
		rec.Sampled = flags&traceFlagSampled != 0
		rec.Slow = flags&traceFlagSlow != 0
		if s.seq0.Load() != ticket {
			continue // torn: a writer claimed this slot while we copied
		}
		out = append(out, rec)
	}
	return out
}
