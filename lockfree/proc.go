package lockfree

import (
	"repro/internal/core"
	"repro/internal/ebr"
)

// Proc carries per-process instrumentation (step counters, adversary
// hooks) through an operation; see repro/internal/instrument. The *Proc
// variants below are the attribution seam of the serving layer's request
// observability: a caller that wants exact per-operation step counts —
// CAS attempts and failures, finger hits — attaches a Proc whose Stats
// the operation fills. The plain methods are equivalent to passing nil.
//
// A Proc is single-goroutine state: never share one Proc between
// concurrent operations. A ShardedSkipList batch runs all its per-shard
// sub-runs on the calling goroutine, so one Proc attributes the whole
// batch.
type Proc = core.Proc

// Value hand-off contract: Insert and InsertBatch retain the value
// exactly as passed — no copy is taken, on insertion or ever after, and
// Get/GetBatch return the same value header. For reference-backed V
// (strings, slices) this means the backing bytes are shared with the
// structure for as long as the key may be observed, including through
// delete/re-insert races where a concurrent reader can still return the
// old node's value. Callers owning reusable buffers must therefore hand
// over immutable bytes: a string view of an append-only arena qualifies
// (the serving layer's parse arena relies on this — one allocation's
// chunk backs many inserted values); a []byte the caller will rewrite
// does not. The flip side is what makes the zero-allocation wire path
// possible: values read back can be written to the network as read-only
// views without defensive copying. TestValueHandOffRetention pins the
// no-copy property.

// InsertProc is Insert with per-operation instrumentation attached.
func (s *skipBody[K, V]) InsertProc(p *Proc, key K, value V) bool {
	_, ok := s.l.Insert(p, key, value)
	return ok
}

// GetProc is Get with per-operation instrumentation attached.
func (s *skipBody[K, V]) GetProc(p *Proc, key K) (V, bool) { return s.l.Get(p, key) }

// DeleteProc is Delete with per-operation instrumentation attached.
func (s *skipBody[K, V]) DeleteProc(p *Proc, key K) bool {
	_, ok := s.l.Delete(p, key)
	return ok
}

// InsertBatchProc is InsertBatch with per-batch instrumentation attached.
func (s *skipBody[K, V]) InsertBatchProc(p *Proc, items []KV[K, V], inserted []bool) int {
	return s.l.InsertBatch(p, items, inserted)
}

// GetBatchProc is GetBatch with per-batch instrumentation attached.
func (s *skipBody[K, V]) GetBatchProc(p *Proc, keys []K, vals []V, found []bool) int {
	return s.l.GetBatch(p, keys, vals, found)
}

// DeleteBatchProc is DeleteBatch with per-batch instrumentation attached.
func (s *skipBody[K, V]) DeleteBatchProc(p *Proc, keys []K, deleted []bool) int {
	return s.l.DeleteBatch(p, keys, deleted)
}

// InsertProc is Insert with per-operation instrumentation attached.
func (s *ShardedSkipList[K, V]) InsertProc(p *Proc, key K, value V) bool {
	_, ok := s.m.Insert(p, key, value)
	return ok
}

// GetProc is Get with per-operation instrumentation attached.
func (s *ShardedSkipList[K, V]) GetProc(p *Proc, key K) (V, bool) { return s.m.Get(p, key) }

// DeleteProc is Delete with per-operation instrumentation attached.
func (s *ShardedSkipList[K, V]) DeleteProc(p *Proc, key K) bool {
	_, ok := s.m.Delete(p, key)
	return ok
}

// InsertBatchProc is InsertBatch with per-batch instrumentation attached.
func (s *ShardedSkipList[K, V]) InsertBatchProc(p *Proc, items []KV[K, V], inserted []bool) int {
	return s.m.InsertBatch(p, items, inserted)
}

// GetBatchProc is GetBatch with per-batch instrumentation attached.
func (s *ShardedSkipList[K, V]) GetBatchProc(p *Proc, keys []K, vals []V, found []bool) int {
	return s.m.GetBatch(p, keys, vals, found)
}

// DeleteBatchProc is DeleteBatch with per-batch instrumentation attached.
func (s *ShardedSkipList[K, V]) DeleteBatchProc(p *Proc, keys []K, deleted []bool) int {
	return s.m.DeleteBatch(p, keys, deleted)
}

// EpochPin is an open critical section on a recycling structure's
// reclamation domain, returned by the PinProc methods. While held, no
// node the pinned operations traverse can have its memory recycled, and
// every operation carrying the associated Proc skips its own per-op
// pin/unpin — one pin amortized over a whole batch of calls. Release
// with Unpin (idempotent against the zero value); holding a pin
// indefinitely stalls the epoch, bounding reclamation at the retire-list
// cap (counted as ebr_stalled_epochs), so scope pins like locks.
type EpochPin struct {
	pin *ebr.Pin
	p   *Proc
}

// Unpin closes the critical section and detaches the token from the Proc.
func (e EpochPin) Unpin() {
	if e.p != nil {
		e.p.Epoch = nil
	}
	e.pin.Unpin()
}

// PinProc opens a critical section on the structure's reclamation domain
// and installs the token in p.Epoch so the *Proc operations ride it.
// No-op (but still safe to Unpin) when recycling is off or p is nil.
func (s *body[K, V]) PinProc(p *Proc) EpochPin {
	pin := s.l.PinEpoch()
	if pin != nil && p != nil {
		p.Epoch = pin
		return EpochPin{pin: pin, p: p}
	}
	return EpochPin{pin: pin}
}

// RecycleCounts reports (recycled, dropped) reclamation totals for a
// recycling structure: nodes pushed onto the free list vs. abandoned to
// the GC (stalled epoch, contention, or full pool). Zeros when recycling
// is off.
func (s *body[K, V]) RecycleCounts() (recycled, dropped uint64) {
	return s.l.RecycleCounts()
}

// ForceReclaim attempts an epoch advance and drains quiesced retire
// batches; intended for quiescent points (tests, shutdown).
func (s *body[K, V]) ForceReclaim() { s.l.ForceReclaim(nil) }
