package core

import (
	"repro/internal/ebr"
	"repro/internal/telemetry"
)

// This file implements search fingers: cursor handles that remember where
// the previous operation ended and start the next search there instead of
// at the top of the head tower. One finger type serves both structures: a
// List's finger remembers level 1 only, because that is all a List has.
//
// The mechanism is exactly the paper's: SEARCHFROM (Figure 3) is proved
// correct from ANY start node that orders <= k (strictly < k for the
// "k - epsilon" searches) and that was in the list at some point - the
// insert retry loop (Insert line 19) and TryFlag's recovery already invoke
// it from interior nodes. A finger merely persists such a node across
// operations. Validity under concurrent deletion comes for free from
// backlink recovery:
//
//	Finger invariant: a finger holds a node that was in its list at the
//	moment it was recorded. If that node has since been marked, its
//	backlink chain leads left to a node that was in the list no earlier
//	than the finger node's deletion; walking it (never restarting from
//	head) re-establishes a valid start node, because marked nodes'
//	successor fields are frozen and backlinks always point to a
//	(one-time) predecessor. The only case that forces a head/top restart
//	is a key ordering below the recovered finger position - a fallback
//	of convenience, not of correctness.
//
// internal/adversary/finger_test.go pins the invariant with schedules that
// fully delete (flag -> mark -> physical) the finger's node between
// operations; DESIGN.md Section 8 maps the amortized batch bounds - O(n +
// k*d + c) on the list, O(log d + c) per element on the skip list - to
// the paper's O(n(S) + c(S)) analysis. The shared descent of GetBatch
// (descent.go) keeps one of these records too, for the last key of a
// group, and resumes the next group from it.

// maxFingerLevels bounds the per-level predecessor memory of a SkipFinger;
// it equals the WithMaxLevel clamp, so every configuration fits.
const maxFingerLevels = 64

// SkipFinger is a cursor over a SkipList: it remembers, for every level
// the last search crossed, the two nodes that search ended between, and
// resumes the next search from the lowest remembered level that still
// brackets the new key - descending from the head tower only when no
// remembered predecessor orders below it. It is owned by a single
// goroutine (one finger per goroutine, like a Proc); the structure itself
// remains safe for any number of concurrent fingers and plain operations.
// The zero value is unusable; obtain one from NewFinger.
//
// Operations through a finger cost one short hop sequence when keys arrive
// in nearly ascending order (the clustered/batched regime) and degrade
// gracefully to a full search from the head tower otherwise. A finger
// keeps its remembered towers - and, transitively, their frozen
// successors - reachable for the garbage collector, so park long-lived
// idle fingers with Reset.
type SkipFinger[K comparable, V any] struct {
	l *SkipList[K, V]
	// top is the highest level with a recorded predecessor; 0 when cold.
	top int
	// prevs[i] and nexts[i] are the pair searchRight last returned on level
	// i+1: the predecessor a resumed search starts from, and the successor
	// whose key bounds the keys that predecessor still brackets. nexts is
	// consulted for its immutable key only, never traversed, so a stale
	// entry costs steps, not correctness. Only levels 1..top are meaningful.
	prevs [maxFingerLevels]*SLNode[K, V]
	nexts [maxFingerLevels]*SLNode[K, V]
	// pin keeps the remembered towers out of the recycler between
	// operations (a per-op pin would leave a gap in which a remembered
	// tower could be recycled and re-keyed mid-read). Acquired lazily on
	// the first operation, released by Reset; nil when the structure does
	// not recycle.
	pin *ebr.Pin
}

// NewFinger returns a finger positioned at the head tower.
func (l *SkipList[K, V]) NewFinger() *SkipFinger[K, V] {
	return &SkipFinger[K, V]{l: l}
}

// Reset forgets the remembered position: the next operation searches from
// the head tower, drops the finger's references into the structure, and
// releases the finger's recycling pin - park long-lived idle fingers with
// Reset, or their pin stalls the epoch and retire lists hit their
// drop-to-GC cap.
func (f *SkipFinger[K, V]) Reset() {
	f.top = 0
	clear(f.prevs[:])
	clear(f.nexts[:])
	f.pin.Unpin()
	f.pin = nil
}

// ensurePin takes the finger's lifetime pin on first use. Unlike the
// per-op wrappers it never borrows the caller's Proc.Epoch pin: the
// finger outlives any single call.
func (f *SkipFinger[K, V]) ensurePin() {
	if f.pin == nil && f.l.rec != nil {
		f.pin = f.l.rec.dom.Pin()
	}
}

// start resolves the finger to a search start for key k on level v by
// climbing the remembered tower: from level v upward, it skips every level
// whose remembered successor still orders below k - k lies beyond that
// level's bracket - and stops on the first level whose predecessor, after
// backlink recovery, orders below k; the search descends from there. Two
// keys a gap of d apart share their brackets above level ~log2 d, so the
// descent is O(log d) levels, and the climb itself reads no shared
// successor field: resuming never costs more than the search it replaces.
// A remembered predecessor that orders after k (the finger moved
// backwards) is skipped too - a higher one may still precede k. Reaching
// the finger's top starts there, bracket or not; only a finger with no
// usable level falls back to the head tower (findStart) - a miss.
//
// Whatever level the climb picks, the start is a remembered predecessor
// after backlink recovery: a node once in its level's list, ordered below
// k - SEARCHFROM's whole precondition. The remembered successors only
// choose WHICH such node, so a stale one (its node deleted, a key inserted
// before it) costs extra hops or levels, never correctness.
//
// Above level 1 the start must order strictly below k even in a
// non-strict search: approaching k's own tower from a true predecessor
// lets searchRight examine the tower's node - and, when the tower is
// dead (superfluous), complete its three-step deletion. Starting on the
// node itself would skip that duty, stranding the tower after a finger
// Delete's sweep and livelocking an Insert retrying against it. On level
// 1 a dead node is marked, not superfluous, so backtrack already rules it
// out and an exact-key start is safe.
func (f *SkipFinger[K, V]) start(p *Proc, k K, v int, strict bool) (*SLNode[K, V], int) {
	n, lv := f.climb(p, k, k, v, strict)
	p.StatsOrNil().IncFinger(lv != 0)
	if lv == 0 {
		f.top = f.l.findStart(v)
		return f.l.head, f.top
	}
	return n, lv
}

// climb is start for a run of keys first..last going down together: the
// brackets it skips are those that end at or before last, and the
// predecessor it stops on orders before first. It returns level 0 when no
// remembered level serves.
func (f *SkipFinger[K, V]) climb(p *Proc, first, last K, v int, strict bool) (*SLNode[K, V], int) {
	l := f.l
	for i := v; i <= f.top && f.prevs[i-1] != nil; i++ {
		if i < f.top && l.nodeLeq(f.nexts[i-1], last, true) {
			continue
		}
		if n := l.backtrack(p, f.prevs[i-1], i); l.nodeLeq(n, first, strict || i > 1) {
			return n, i
		}
	}
	return nil, 0
}

// sweep implements slSearcher's post-deletion cleanup. Unlike start, it
// must cover every nonempty level down to 2 - the deleted tower
// can be taller than anything this finger has seen - so it descends from
// the top of the structure like the plain sweep, but on each level jumps
// to the finger's recorded predecessor when that is still a strict
// predecessor of k: for clustered deletes each level's walk is then a
// short hop instead of a scan from the head.
func (f *SkipFinger[K, V]) sweep(p *Proc, k K) {
	l := f.l
	curr, lv := l.head, l.findStart(2)
	if lv > f.top {
		f.top = lv
	}
	for ; lv >= 2; lv-- {
		if c := f.prevs[lv-1]; c != nil {
			c = l.backtrack(p, c, lv)
			if l.nodeLeq(c, k, true) {
				curr = c
			}
		}
		curr, f.nexts[lv-1] = l.searchRight(p, k, curr, lv, false)
		f.prevs[lv-1] = curr
	}
}

// searchToLevel implements slSearcher: the finger-accelerated counterpart
// of SkipList.searchToLevel. Every level it traverses refreshes the
// corresponding finger predecessor.
func (f *SkipFinger[K, V]) searchToLevel(p *Proc, k K, v int, strict bool) (*SLNode[K, V], *SLNode[K, V]) {
	curr, lv := f.start(p, k, v, strict)
	for ; lv > v; lv-- {
		curr, f.nexts[lv-1] = f.l.searchRight(p, k, curr, lv, strict)
		f.prevs[lv-1] = curr
	}
	curr, next := f.l.searchRight(p, k, curr, v, strict)
	f.prevs[v-1], f.nexts[v-1] = curr, next
	return curr, next
}

// Search looks up k starting from the finger and returns its tower,
// or nil if k is absent.
func (f *SkipFinger[K, V]) Search(p *Proc, k K) *SLNode[K, V] {
	f.ensurePin()
	l := f.l
	if l.tel == nil {
		return l.searchVia(p, f, k)
	}
	tok := l.tel.StartOp(telemetry.OpGet)
	if !tok.Sampled() {
		n := l.searchVia(p, f, k)
		l.tel.FinishOp(tok, telemetry.OpGet, nil)
		return n
	}
	s := beginSampled(p)
	n := l.searchVia(&s.pr, f, k)
	finishSampled(l.tel, tok, telemetry.OpGet, p, s)
	return n
}

// Get looks up k starting from the finger.
func (f *SkipFinger[K, V]) Get(p *Proc, k K) (V, bool) {
	if n := f.Search(p, k); n != nil {
		return n.val, true
	}
	var zero V
	return zero, false
}

// insert is insertVia through the finger, which then remembers the tower
// carrying k - new or the duplicate found - as its level-1 predecessor:
// the next key of an ascending run starts there instead of one node back.
func (f *SkipFinger[K, V]) insert(p *Proc, k K, v V) (*SLNode[K, V], bool) {
	n, ok := f.l.insertVia(p, f, k, v)
	f.prevs[0] = n
	return n, ok
}

// Insert adds k with value v starting every level search from the finger.
func (f *SkipFinger[K, V]) Insert(p *Proc, k K, v V) (*SLNode[K, V], bool) {
	f.ensurePin()
	l := f.l
	if l.tel == nil {
		return f.insert(p, k, v)
	}
	tok := l.tel.StartOp(telemetry.OpInsert)
	if !tok.Sampled() {
		n, ok := f.insert(p, k, v)
		l.tel.FinishOp(tok, telemetry.OpInsert, nil)
		return n, ok
	}
	s := beginSampled(p)
	n, ok := f.insert(&s.pr, k, v)
	finishSampled(l.tel, tok, telemetry.OpInsert, p, s)
	return n, ok
}

// Delete removes k starting every level search from the finger.
func (f *SkipFinger[K, V]) Delete(p *Proc, k K) (*SLNode[K, V], bool) {
	f.ensurePin()
	l := f.l
	if l.tel == nil {
		return l.removeVia(p, f, k)
	}
	tok := l.tel.StartOp(telemetry.OpDelete)
	if !tok.Sampled() {
		n, ok := l.removeVia(p, f, k)
		l.tel.FinishOp(tok, telemetry.OpDelete, nil)
		return n, ok
	}
	s := beginSampled(p)
	n, ok := l.removeVia(&s.pr, f, k)
	finishSampled(l.tel, tok, telemetry.OpDelete, p, s)
	return n, ok
}
