package core

import (
	"repro/internal/ebr"
)

// This file wires internal/ebr's node recycling into the structures. With
// recycling enabled (List.EnableRecycling / WithRecycling), every node
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
//  2. Skip-list towers retire atomically. The sweep unlinks the root
//     FIRST (level 1), then the upper levels, and upper nodes keep
//     down/towerRoot edges into the root — superfluous() dereferences
//     towerRoot — so per-node grace periods would free a root while its
//     tower is still reachable. Instead every tower carries a live count
//     on its root (1 for the root + 1 per upper node) and the root
//     remembers the tower's topmost node; whichever unlink drops the
//     count to zero retires the whole tower, top to root along the down
//     edges, in one batch. A pinned holder of ANY tower node therefore
//     blocks reuse of EVERY node of that tower.
//
// Node identity survives reuse trivially for the successor word's ABA
// argument: a word naming a node depends only on the node's address, and
// the grace period guarantees no pinned operation still holds a word
// naming a node when it is reused.

// recycler bundles a structure's reclamation domain with its free list.
// One per structure; towers and list nodes are uniform in size (a tower
// is a chain of SLNodes, not an array), so a single pool covers every
// level class.
type recycler struct {
	dom  *ebr.Domain
	pool *ebr.Pool
}

func newRecycler() *recycler {
	return &recycler{dom: ebr.NewDomain(), pool: ebr.NewPool(0)}
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
func (l *List[K, V]) opPin(p *Proc) *ebr.Pin {
	if l.rec == nil {
		return nil
	}
	return l.rec.pin(p)
}

func (l *SkipList[K, V]) opPin(p *Proc) *ebr.Pin {
	if l.rec == nil {
		return nil
	}
	return l.rec.pin(p)
}

// PinEpoch opens a caller-held critical section on the list's reclamation
// domain, or returns nil (Unpin-safe) when recycling is off. Install the
// pin in Proc.Epoch and the exported operations skip their own pin/unpin
// — the batch-amortized fast path the lockfree facades expose as PinProc.
func (l *List[K, V]) PinEpoch() *ebr.Pin {
	if l.rec == nil {
		return nil
	}
	return l.rec.dom.Pin()
}

// PinEpoch: see List.PinEpoch.
func (l *SkipList[K, V]) PinEpoch() *ebr.Pin {
	if l.rec == nil {
		return nil
	}
	return l.rec.dom.Pin()
}

// EnableRecycling switches the list to epoch-based node recycling. Must
// be called before the list is shared (the field is read without
// synchronization on operation entry); it cannot be disabled again.
func (l *List[K, V]) EnableRecycling() { l.rec = newRecycler() }

// RecyclingEnabled reports whether the list recycles nodes.
func (l *List[K, V]) RecyclingEnabled() bool { return l.rec != nil }

// RecyclingEnabled reports whether the skip list recycles nodes.
func (l *SkipList[K, V]) RecyclingEnabled() bool { return l.rec != nil }

// newNode returns a node for k/v, reusing a recycled node when one is
// free. Beyond key and value only the backlink is reset; succ is (re)stored by the insert
// loop before publication.
func (l *List[K, V]) newNode(p *Proc, k K, v V) *Node[K, V] {
	if l.rec != nil {
		if raw := l.rec.pool.Get(p.StatsOrNil()); raw != nil {
			n := raw.(*Node[K, V])
			n.key, n.val = k, v
			n.backlink.Store(nil)
			return n
		}
	}
	return &Node[K, V]{key: k, val: v}
}

// freeNode returns a node that was never published (duplicate-key insert
// race) straight to the free list — no grace period needed, no other
// goroutine ever saw it.
func (l *List[K, V]) freeNode(n *Node[K, V]) {
	if l.rec != nil {
		l.rec.pool.Put(n)
	}
}

// retireNode hands an unlinked node to the epoch machinery. Called from
// the winning physical-deletion C&S, inside the operation's pin.
func (l *List[K, V]) retireNode(p *Proc, n *Node[K, V]) {
	if l.rec != nil {
		l.rec.dom.RetireNode(l.rec.pool, n, p.StatsOrNil())
	}
}

// ForceReclaim attempts an epoch advance and drains every quiesced retire
// batch; call a few times in a quiescent state to recycle everything
// pending. No-op without recycling.
func (l *List[K, V]) ForceReclaim(p *Proc) {
	if l.rec != nil {
		l.rec.dom.Reclaim(p.StatsOrNil())
	}
}

// RecycleCounts reports (recycled, dropped) totals: nodes pushed onto the
// free list vs. abandoned to the GC (stalled epoch, contention, or full
// pool). Zeros without recycling.
func (l *List[K, V]) RecycleCounts() (recycled, dropped uint64) {
	if l.rec == nil {
		return 0, 0
	}
	return l.rec.dom.Recycled(), l.rec.dom.Dropped()
}

// RetirePending reports how many nodes sit in retire lists awaiting their
// grace period. Zero without recycling.
func (l *List[K, V]) RetirePending() int {
	if l.rec == nil {
		return 0
	}
	return l.rec.dom.Pending()
}

// ForceReclaim: see List.ForceReclaim.
func (l *SkipList[K, V]) ForceReclaim(p *Proc) {
	if l.rec != nil {
		l.rec.dom.Reclaim(p.StatsOrNil())
	}
}

// RecycleCounts: see List.RecycleCounts.
func (l *SkipList[K, V]) RecycleCounts() (recycled, dropped uint64) {
	if l.rec == nil {
		return 0, 0
	}
	return l.rec.dom.Recycled(), l.rec.dom.Dropped()
}

// RetirePending: see List.RetirePending.
func (l *SkipList[K, V]) RetirePending() int {
	if l.rec == nil {
		return 0
	}
	return l.rec.dom.Pending()
}

// newRoot returns a level-1 tower root for k/v, recycled when possible.
// The tower's live count starts at 1 (the root itself).
func (l *SkipList[K, V]) newRoot(p *Proc, k K, v V) *SLNode[K, V] {
	if l.rec != nil {
		if raw := l.rec.pool.Get(p.StatsOrNil()); raw != nil {
			n := raw.(*SLNode[K, V])
			n.key, n.val = k, v
			n.down = nil
			n.towerRoot = n
			n.backlink.Store(nil)
			n.towerLive.Store(1)
			return n
		}
	}
	root := &SLNode[K, V]{key: k, val: v}
	root.towerRoot = root
	root.towerLive.Store(1)
	return root
}

// newUpper returns a tower node one level above down, recycled when
// possible. When the skip list recycles, the caller must have acquired a
// tower reference (towerAcquire) for it first, and the root's otherwise
// unused down records it as the tower's top BEFORE it is published: once
// published it can be unlinked, and the unlink that drops the live count
// to zero walks the tower from that top (towerCollapse). Only the one
// process building the tower writes the field, always holding a
// reference, so a collapse never runs concurrently with the write.
func (l *SkipList[K, V]) newUpper(p *Proc, k K, down, root *SLNode[K, V]) *SLNode[K, V] {
	if l.rec == nil {
		return &SLNode[K, V]{key: k, down: down, towerRoot: root}
	}
	n, _ := l.rec.pool.Get(p.StatsOrNil()).(*SLNode[K, V])
	if n == nil {
		n = new(SLNode[K, V])
	}
	var zero V
	n.key, n.val = k, zero
	n.down = down
	n.towerRoot = root
	n.backlink.Store(nil)
	root.down = n
	return n
}

// towerAcquire takes one reference on root's tower before creating an
// upper node. It refuses (false) once the count has reached zero: the
// tower has fully retired, and resurrecting the count would let the new
// node outlive its root's grace period. The CAS loop is safe because the
// caller is pinned, so root's memory cannot be recycled mid-loop.
func (l *SkipList[K, V]) towerAcquire(root *SLNode[K, V]) bool {
	if l.rec == nil {
		return true
	}
	for {
		c := root.towerLive.Load()
		if c == 0 {
			return false
		}
		if root.towerLive.CompareAndSwap(c, c+1) {
			return true
		}
	}
}

// towerRetire records the physical unlink of one tower node. Whichever
// unlink drops the live count to zero retires the whole tower as one
// batch, so towerRoot/down edges stay valid for every pinned holder for
// the full grace period.
func (l *SkipList[K, V]) towerRetire(p *Proc, n *SLNode[K, V]) {
	if l.rec == nil {
		return
	}
	if root := n.towerRoot; root.towerLive.Add(-1) == 0 {
		l.towerCollapse(p, root)
	}
}

// towerAbandon undoes a towerAcquire whose upper node was never
// published: the node goes straight back to the free list (no grace
// period — no other goroutine ever saw it), the tower's top drops back to
// the node below it, and the dropped reference may complete the tower's
// collapse.
func (l *SkipList[K, V]) towerAbandon(p *Proc, n *SLNode[K, V]) {
	root := n.towerRoot
	root.down = n.down
	l.rec.pool.Put(n)
	if root.towerLive.Add(-1) == 0 {
		l.towerCollapse(p, root)
	}
}

// towerCollapse retires the fully unlinked tower rooted at root: every
// upper node from the recorded top down, then the root itself, stamped
// into the current epoch. Runs exactly once per tower (only one decrement
// reaches zero), after the builder's last write of the top (the decrement
// that reached zero is ordered after it).
func (l *SkipList[K, V]) towerCollapse(p *Proc, root *SLNode[K, V]) {
	st := p.StatsOrNil()
	rec := l.rec
	for n := root.down; n != nil && n != root; {
		below := n.down
		rec.dom.RetireNode(rec.pool, n, st)
		n = below
	}
	rec.dom.RetireNode(rec.pool, root, st)
}
