package core

import (
	"sync"
	"time"

	"repro/internal/telemetry"
)

// This file is the telemetry seam of the primary structures: every exported
// operation is a thin wrapper that, when a telemetry.Recorder is attached,
// counts the operation and — for the sampled subset — accumulates the
// paper's essential steps in a scratch OpStats and flushes them, with one
// latency and one retry sample, into the recorder's sharded counters.
//
// The disabled path costs exactly one nil check per operation: no
// allocation, no atomic, no clock read. The enabled path keeps operation
// counts exact and samples everything else (period
// telemetry.DefaultSampleEvery, configurable down to 1 = record
// everything):
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

// beginSampled returns a sampledOp whose Proc is a copy of p (hooks, ID,
// retire callback, epoch pin intact) with its step counters redirected to
// zeroed scratch, so the operation's essential steps are collected locally
// regardless of whether the caller passed its own Proc.
func beginSampled(p *Proc) *sampledOp {
	s := sampledPool.Get().(*sampledOp)
	if p != nil {
		s.pr = *p
	}
	s.st = OpStats{}
	s.pr.Stats = &s.st
	return s
}

// finishSampled records one sampled operation and mirrors the locally
// collected steps into the caller's own counters, if it brought any, so an
// instrumented benchmark sees exactly what the live metrics see.
func finishSampled(rec *telemetry.Recorder, tok telemetry.OpToken, op telemetry.Op, p *Proc, s *sampledOp) {
	rec.FinishOp(tok, op, &s.st)
	endSampled(p, s)
}

// endSampled mirrors the steps s collected into p's own counters and
// returns s to the pool.
func endSampled(p *Proc, s *sampledOp) {
	if outer := p.StatsOrNil(); outer != nil {
		outer.Add(&s.st)
	}
	s.pr = Proc{} // a pooled Proc must not keep the caller's hooks or pin alive
	sampledPool.Put(s)
}

// Search looks up k and returns its tower, or nil if k is absent.
// This is SEARCH_SL.
func (l *SkipList[K, V]) Search(p *Proc, k K) *SLNode[K, V] {
	defer l.opPin(p).Unpin()
	if l.tel == nil {
		return l.search(p, k)
	}
	tok := l.tel.StartOp(telemetry.OpGet)
	if !tok.Sampled() {
		n := l.search(p, k)
		l.tel.FinishOp(tok, telemetry.OpGet, nil)
		return n
	}
	s := beginSampled(p)
	n := l.search(&s.pr, k)
	finishSampled(l.tel, tok, telemetry.OpGet, p, s)
	return n
}

// Get looks up k and returns its value.
func (l *SkipList[K, V]) Get(p *Proc, k K) (V, bool) {
	defer l.opPin(p).Unpin()
	if l.tel == nil {
		return l.get(p, k)
	}
	tok := l.tel.StartOp(telemetry.OpGet)
	if !tok.Sampled() {
		v, ok := l.get(p, k)
		l.tel.FinishOp(tok, telemetry.OpGet, nil)
		return v, ok
	}
	s := beginSampled(p)
	v, ok := l.get(&s.pr, k)
	finishSampled(l.tel, tok, telemetry.OpGet, p, s)
	return v, ok
}

// Insert adds k with value v, linking the new tower bottom-up. It returns
// the tower and true on success, or the existing tower and false if k is
// already present. The insertion is linearized at the level-1 insertion
// C&S. This is INSERT_SL.
func (l *SkipList[K, V]) Insert(p *Proc, k K, v V) (*SLNode[K, V], bool) {
	defer l.opPin(p).Unpin()
	if l.tel == nil {
		return l.insert(p, k, v)
	}
	tok := l.tel.StartOp(telemetry.OpInsert)
	if !tok.Sampled() {
		n, ok := l.insert(p, k, v)
		l.tel.FinishOp(tok, telemetry.OpInsert, nil)
		return n, ok
	}
	s := beginSampled(p)
	n, ok := l.insert(&s.pr, k, v)
	finishSampled(l.tel, tok, telemetry.OpInsert, p, s)
	return n, ok
}

// Delete removes k. It deletes the tower on level 1 first (making the rest
// of it superfluous and linearizing the deletion when level 1 is marked),
// then sweeps levels >= 2 to physically unlink the tower there.
// This is DELETE_SL.
func (l *SkipList[K, V]) Delete(p *Proc, k K) (*SLNode[K, V], bool) {
	defer l.opPin(p).Unpin()
	if l.tel == nil {
		return l.remove(p, k)
	}
	tok := l.tel.StartOp(telemetry.OpDelete)
	if !tok.Sampled() {
		n, ok := l.remove(p, k)
		l.tel.FinishOp(tok, telemetry.OpDelete, nil)
		return n, ok
	}
	s := beginSampled(p)
	n, ok := l.remove(&s.pr, k)
	finishSampled(l.tel, tok, telemetry.OpDelete, p, s)
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
	if l.tel == nil {
		l.ascendRange(p, from, to, fn)
		return
	}
	tok := l.tel.StartOp(telemetry.OpAscend)
	if !tok.Sampled() {
		l.ascendRange(p, from, to, fn)
		l.tel.FinishOp(tok, telemetry.OpAscend, nil)
		return
	}
	s := beginSampled(p)
	l.ascendRange(&s.pr, from, to, fn)
	finishSampled(l.tel, tok, telemetry.OpAscend, p, s)
}
