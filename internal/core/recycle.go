package core

import (
	"repro/internal/ebr"
)

// This file wires internal/ebr's node recycling into the structures. With
// recycling enabled (WithRecycling, or List.EnableRecycling), every node
// whose physical-deletion C&S succeeds is routed through the domain's
// epoch-stamped retire lists instead of being left to the garbage
// collector, and the insert paths consult the structure's free list
// before allocating — steady-state insert-after-delete traffic allocates
// nothing.
//
// Safety rests on two rules (DESIGN.md §2.1 addendum):
//
//  1. Every operation runs inside a Pin on the structure's domain: the
//     exported wrappers (telemetry.go) pin per call, fingers hold a pin
//     for their lifetime (they remember nodes across calls; Reset
//     releases it), and a caller that installs its Pin in Proc.Epoch is
//     trusted to span the whole call.
//
//  2. A skip-list tower retires once, after its LAST unlink. The sweep
//     unlinks level 1 FIRST, then the upper levels, and all of them are
//     cells of one object, so retiring at the first unlink would recycle
//     a tower that is still linked above. Instead every tower carries a
//     live count (1 for level 1 + 1 per higher level, taken before that
//     level is linked) and whichever unlink drops it to zero retires the
//     object. A pinned holder of the tower on ANY level therefore blocks
//     its reuse on EVERY level.
//
// Node identity survives reuse trivially for the successor word's ABA
// argument: a word naming a node depends only on the node's address, and
// the grace period guarantees no pinned operation still holds a word
// naming a node when it is reused.

// recycler bundles a structure's reclamation domain with its free lists,
// one per tower bucket (towerCaps) its towers can be drawn from - a List,
// whose towers are one level high, has one - because a recycled tower can
// only stand in for a tower allocated as the same struct type. Taller
// buckets are drawn ever more rarely (1/2, 1/4, 1/8, 1/16, 1/16, 1/256,
// ...), so each free list gets half the room of the one before: eight of
// them hold twice what one does, not eight times.
type recycler struct {
	dom   *ebr.Domain
	pools []*ebr.Pool
}

func newRecycler(sizes int) *recycler {
	r := &recycler{dom: ebr.NewDomain(), pools: make([]*ebr.Pool, sizes)}
	for i := range r.pools {
		r.pools[i] = ebr.NewPool(ebr.DefaultPoolCap >> i)
	}
	return r
}

// pin opens a critical section for one operation, or returns nil (a
// no-op to Unpin) when the caller already holds a pin on this domain in
// Proc.Epoch — the pinned fast path: one type assertion instead of two
// atomic RMWs per op.
func (r *recycler) pin(p *Proc) *ebr.Pin {
	if p != nil {
		if pin, ok := p.Epoch.(*ebr.Pin); ok && pin.Domain() == r.dom {
			return nil
		}
	}
	return r.dom.Pin()
}

// opPin pins one exported operation; nil-tolerant on both sides so the
// wrappers can unconditionally `defer l.opPin(p).Unpin()`.
func (l *SkipList[K, V]) opPin(p *Proc) *ebr.Pin {
	if l.rec == nil {
		return nil
	}
	return l.rec.pin(p)
}

// PinEpoch opens a caller-held critical section on the skip list's
// reclamation domain, or returns nil (Unpin-safe) when recycling is off.
// Install the pin in Proc.Epoch and the exported operations skip their own
// pin/unpin - the batch-amortized fast path the lockfree facades expose as
// PinProc.
func (l *SkipList[K, V]) PinEpoch() *ebr.Pin {
	if l.rec == nil {
		return nil
	}
	return l.rec.dom.Pin()
}

// RecyclingEnabled reports whether the skip list recycles nodes.
func (l *SkipList[K, V]) RecyclingEnabled() bool { return l.rec != nil }

// ForceReclaim attempts an epoch advance and drains every quiesced retire
// batch; call a few times in a quiescent state to recycle everything
// pending. No-op without recycling.
func (l *SkipList[K, V]) ForceReclaim(p *Proc) {
	if l.rec != nil {
		l.rec.dom.Reclaim(p.StatsOrNil())
	}
}

// RecycleCounts reports (recycled, dropped) totals: towers pushed onto the
// free lists vs. abandoned to the GC (stalled epoch, contention, or full
// pool). Zeros without recycling.
func (l *SkipList[K, V]) RecycleCounts() (recycled, dropped uint64) {
	if l.rec == nil {
		return 0, 0
	}
	return l.rec.dom.Recycled(), l.rec.dom.Dropped()
}

// RetirePending reports how many towers sit in retire lists awaiting their
// grace period. Zero without recycling.
func (l *SkipList[K, V]) RetirePending() int {
	if l.rec == nil {
		return 0
	}
	return l.rec.dom.Pending()
}

// newTower returns an unlinked tower of the given height for k/v, recycled
// from the height's bucket when possible. A recycled tower has every cell
// its previous life used reset - the cells above that were never written -
// so cells above the new height hold the zero word like a fresh one's. The
// live count starts at 1: level 1, which the caller is about to link.
func (l *SkipList[K, V]) newTower(p *Proc, k K, v V, height int) *SLNode[K, V] {
	var n *SLNode[K, V]
	if l.rec != nil {
		n, _ = l.rec.pools[towerBucket(height)].Get(p.StatsOrNil()).(*SLNode[K, V])
	}
	if n == nil {
		n = allocTower[K, V](height)
	} else {
		for lv := int(n.height); lv >= 1; lv-- {
			c := n.cell(lv)
			c.succ.store(word[SLNode[K, V]]{})
			c.backlink.Store(nil)
		}
		n.height = uint8(height)
	}
	n.key, n.val = k, v
	n.towerLive.Store(1)
	return n
}

// freeTower returns a tower that was never published (duplicate-key insert
// race) straight to its free list - no grace period needed, no other
// goroutine ever saw it.
func (l *SkipList[K, V]) freeTower(n *SLNode[K, V]) {
	if l.rec != nil {
		l.rec.pools[towerBucket(int(n.height))].Put(n)
	}
}

// towerAcquire takes one reference on the tower before linking its next
// level. It refuses (false) once the count has reached zero: the tower has
// fully retired, and resurrecting the count would link a retired object.
// The CAS loop is safe because the caller is pinned, so the tower's memory
// cannot be recycled mid-loop.
func (l *SkipList[K, V]) towerAcquire(n *SLNode[K, V]) bool {
	if l.rec == nil {
		return true
	}
	for {
		c := n.towerLive.Load()
		if c == 0 {
			return false
		}
		if n.towerLive.CompareAndSwap(c, c+1) {
			return true
		}
	}
}

// towerRetire drops one reference: a level of the tower was physically
// unlinked, or a reference taken by towerAcquire goes unused because its
// level was never linked (an unlinked cell has nothing else to hand
// back). Whichever drop reaches zero retires the object, once, so it stays
// intact for every pinned holder for the full grace period.
func (l *SkipList[K, V]) towerRetire(p *Proc, n *SLNode[K, V]) {
	if l.rec != nil && n.towerLive.Add(-1) == 0 {
		l.rec.dom.RetireNode(l.rec.pools[towerBucket(int(n.height))], n, p.StatsOrNil())
	}
}
