package core

import (
	"sync"
	"time"

	"repro/internal/telemetry"
)

// This file is the telemetry seam of the primary structures. Every
// exported operation runs inside one op scope: beginOp opens it and hands
// back the Proc the operation runs with, end records the operation. When
// a telemetry.Recorder is attached, the scope counts the operation and —
// for the sampled subset — accumulates the paper's essential steps in a
// scratch OpStats and flushes them, with one latency and one retry sample,
// into the recorder's sharded counters. A GetBatch descent group is one
// scope over its n keys.
//
// The disabled path costs a nil check where the scope opens and one where
// it ends: no allocation, no atomic, no clock read. The enabled path keeps operation counts exact and
// samples everything else (period telemetry.DefaultSampleEvery,
// configurable down to 1 = record everything):
//
//   - unsampled operations run with the caller's own Proc untouched and
//     pay one atomic load plus one striped atomic add,
//   - sampled operations borrow a sampledOp — a scratch OpStats plus the
//     Proc that points at it — from a sync.Pool (neither can live on the
//     stack: the hook interface call in the inner operations makes escape
//     analysis spill the Proc and anything reachable from it), read the
//     clock twice, and flush a handful of striped atomic adds — never per
//     step, so the algorithms' hot loops are untouched. A recorded
//     operation therefore allocates nothing, even at SampleEvery(1).
//
// A caller-supplied Proc always sees exact stats: unsampled operations
// write straight into it, sampled ones mirror the scratch back.

// SetTelemetry attaches rec to the skip list; every subsequent operation
// flushes its step counts and latency into it. Attach before the skip list
// is shared with other goroutines (the field is read without
// synchronization on operation entry). A nil rec detaches.
func (l *SkipList[K, V]) SetTelemetry(rec *telemetry.Recorder) { l.tel = rec }

// Telemetry returns the attached recorder, or nil.
func (l *SkipList[K, V]) Telemetry() *telemetry.Recorder { return l.tel }

// sampledOp is the per-operation state of one sampled operation: the Proc
// handed to the inner operation and the scratch counters it points at.
type sampledOp struct {
	pr Proc
	st OpStats
}

// sampledPool recycles sampledOps, one Get/Put per sampled operation.
var sampledPool = sync.Pool{New: func() any { return new(sampledOp) }}

// opScope records one operation, or one group of n operations that run as
// one unit, between beginOp and end.
type opScope struct {
	tel *telemetry.Recorder // nil: nothing is recorded
	tok telemetry.OpToken
	op  telemetry.Op
	n   int
	p   *Proc      // the caller's own Proc
	s   *sampledOp // the sampled scratch, or nil when unsampled
}

// beginOp opens the scope of n operations of kind op on tel and returns
// the Proc they run with: p itself, or, when the scope is sampled, a copy
// of p (hooks, ID, retire callback, epoch pin intact) whose step counters
// are redirected to zeroed scratch, so the steps are collected locally
// whether or not the caller passed its own Proc. Without a recorder it
// is the nil check alone.
func beginOp(tel *telemetry.Recorder, p *Proc, op telemetry.Op, n int) (opScope, *Proc) {
	if tel == nil {
		return opScope{}, p
	}
	return startOp(tel, p, op, n)
}

// startOp is beginOp with a recorder, kept out of line so that beginOp
// inlines.
func startOp(tel *telemetry.Recorder, p *Proc, op telemetry.Op, n int) (opScope, *Proc) {
	sc := opScope{tel: tel, tok: tel.StartGroup(op, n), op: op, n: n, p: p}
	if !sc.tok.Sampled() {
		return sc, p
	}
	s := sampledPool.Get().(*sampledOp)
	if p != nil {
		s.pr = *p
	}
	s.st = OpStats{}
	s.pr.Stats = &s.st
	sc.s = s
	return sc, &s.pr
}

// end records the scope's operations. A sampled scope flushes the steps it
// collected and mirrors them into the caller's own counters, if it brought
// any, so an instrumented benchmark sees exactly what the live metrics see.
func (sc *opScope) end() {
	if sc.tel != nil {
		sc.finish()
	}
}

// finish is end with a recorder, kept out of line so that end inlines.
func (sc *opScope) finish() {
	s := sc.s
	if s == nil {
		sc.tel.FinishGroup(sc.tok, sc.op, sc.n, nil)
		return
	}
	sc.tel.FinishGroup(sc.tok, sc.op, sc.n, &s.st)
	if outer := sc.p.StatsOrNil(); outer != nil {
		outer.Add(&s.st)
	}
	s.pr = Proc{} // a pooled Proc must not keep the caller's hooks or pin alive
	sampledPool.Put(s)
}

// Search looks up k and returns its tower, or nil if k is absent.
// This is SEARCH_SL.
func (l *SkipList[K, V]) Search(p *Proc, k K) *SLNode[K, V] {
	defer l.opPin(p).Unpin()
	sc, p := beginOp(l.tel, p, telemetry.OpGet, 1)
	n := l.search(p, k)
	sc.end()
	return n
}

// Get looks up k and returns its value.
func (l *SkipList[K, V]) Get(p *Proc, k K) (V, bool) {
	defer l.opPin(p).Unpin()
	sc, p := beginOp(l.tel, p, telemetry.OpGet, 1)
	v, ok := l.get(p, k)
	sc.end()
	return v, ok
}

// Insert adds k with value v, linking the new tower bottom-up. It returns
// the tower and true on success, or the existing tower and false if k is
// already present. The insertion is linearized at the level-1 insertion
// C&S. This is INSERT_SL.
func (l *SkipList[K, V]) Insert(p *Proc, k K, v V) (*SLNode[K, V], bool) {
	defer l.opPin(p).Unpin()
	sc, p := beginOp(l.tel, p, telemetry.OpInsert, 1)
	r := record[K, V]{l: l}
	n, ok := r.insert(p, k, v)
	sc.end()
	return n, ok
}

// Delete removes k. It deletes the tower on level 1 first (making the rest
// of it superfluous and linearizing the deletion when level 1 is marked),
// then sweeps levels >= 2 to physically unlink the tower there.
// This is DELETE_SL.
func (l *SkipList[K, V]) Delete(p *Proc, k K) (*SLNode[K, V], bool) {
	defer l.opPin(p).Unpin()
	sc, p := beginOp(l.tel, p, telemetry.OpDelete, 1)
	r := record[K, V]{l: l}
	n, ok := r.remove(p, k)
	sc.end()
	return n, ok
}

// Ascend calls fn for each key/value in ascending order by walking level 1,
// skipping marked roots. Weakly consistent under concurrency.
func (l *SkipList[K, V]) Ascend(fn func(k K, v V) bool) {
	defer l.opPin(nil).Unpin()
	if l.tel == nil {
		l.ascend(fn)
		return
	}
	start := telemetry.Nanotime()
	l.ascend(fn)
	l.tel.RecordOp(telemetry.OpAscend, nil, time.Duration(telemetry.Nanotime()-start))
}

// AscendRange calls fn for keys in [from, to) in ascending order. It uses
// the skip-list search to locate the start, then walks level 1.
//
// Under concurrent updates the scan is weakly consistent, with these
// guarantees (pinned by TestAscendRangeConcurrent):
//
//   - every key fn sees is in [from, to), keys arrive in strictly
//     ascending order, and no key is reported twice;
//   - a key present with the same value for the whole duration of the
//     call is reported, with that value (values are immutable once
//     inserted, so a reported value is always one the key actually held);
//   - a key inserted or deleted during the call may or may not be
//     reported - the scan reflects some interleaving of the concurrent
//     updates, never a torn state.
//
// fn returning false stops the iteration.
func (l *SkipList[K, V]) AscendRange(p *Proc, from, to K, fn func(k K, v V) bool) {
	defer l.opPin(p).Unpin()
	sc, p := beginOp(l.tel, p, telemetry.OpAscend, 1)
	l.ascendRange(p, from, to, fn)
	sc.end()
}
