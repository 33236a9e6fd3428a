package core

import (
	"repro/internal/ebr"
	"repro/internal/telemetry"
)

// This file implements the bracket record every update runs through, and
// search fingers: records kept across operations, so the next search
// starts where the previous operation ended instead of at the top of the
// head tower. One finger type serves both structures: a List's finger
// remembers level 1 only, because that is all a List has.
//
// The mechanism is exactly the paper's: SEARCHFROM (Figure 3) is proved
// correct from ANY start node that orders <= k (strictly < k for the
// "k - epsilon" searches) and that was in the list at some point - the
// insert retry loop (Insert line 19) and TryFlag's recovery already invoke
// it from interior nodes. A record merely keeps such a node, per level,
// beyond the search that found it. Validity under concurrent deletion
// comes for free from backlink recovery:
//
//	Record invariant: a record holds nodes that were in their levels'
//	lists at the moment they were recorded. If such a node has since
//	been marked, its backlink chain leads left to a node that was in the
//	list no earlier than the recorded node's deletion; walking it (never
//	restarting from head) re-establishes a valid start node, because
//	marked nodes' successor fields are frozen and backlinks always point
//	to a (one-time) predecessor. The only case that forces a head/top
//	restart is a key ordering below the recovered position - a fallback
//	of convenience, not of correctness.
//
// internal/adversary/finger_test.go pins the invariant with schedules that
// fully delete (flag -> mark -> physical) the finger's node between
// operations, and internal/adversary/record_test.go with schedules that
// delete a point update's recorded upper-level predecessor before that
// level is inserted or swept; DESIGN.md Section 8 maps the amortized
// batch bounds - O(n + k*d + c) on the list, O(log d + c) per element on
// the skip list - to the paper's O(n(S) + c(S)) analysis. The shared
// descent of GetBatch (descent.go) keeps a finger's record too, for the
// last key of a group, and resumes the next group from it.

// maxFingerLevels bounds the per-level predecessor memory of a record;
// it equals the WithMaxLevel clamp, so every configuration fits.
const maxFingerLevels = 64

// record holds, for every level the last search crossed, the two nodes
// that search ended between - a bracket - and resumes the next search from
// the lowest level that still brackets its key. A point Insert or Delete
// runs over a zeroed record in its own frame: its level-1 search descends
// from the head and leaves a bracket on every level, from which the
// tower's upper levels are inserted or swept. A batch threads one record
// through its sorted run; a SkipFinger keeps one across operations.
type record[K comparable, V any] struct {
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
	// hits and misses count the search starts since the last report.
	// Fingers and batches report them; a point update's record does not.
	hits, misses uint64
}

// SkipFinger is a cursor over a SkipList: a record kept across operations.
// It is owned by a single goroutine (one finger per goroutine, like a
// Proc); the structure itself remains safe for any number of concurrent
// fingers and plain operations. The zero value is unusable; obtain one
// from NewFinger.
//
// Operations through a finger cost one short hop sequence when keys arrive
// in nearly ascending order (the clustered/batched regime) and degrade
// gracefully to a full search from the head tower otherwise. A finger
// keeps its remembered towers - and, transitively, their frozen
// successors - reachable for the garbage collector, so park long-lived
// idle fingers with Reset.
type SkipFinger[K comparable, V any] struct {
	record[K, V]
	// pin keeps the remembered towers out of the recycler between
	// operations (a per-op pin would leave a gap in which a remembered
	// tower could be recycled and re-keyed mid-read). Acquired lazily on
	// the first operation, released by Reset; nil when the structure does
	// not recycle.
	pin *ebr.Pin
}

// NewFinger returns a finger positioned at the head tower.
func (l *SkipList[K, V]) NewFinger() *SkipFinger[K, V] {
	return &SkipFinger[K, V]{record: record[K, V]{l: l}}
}

// Reset forgets the remembered position: the next operation searches from
// the head tower, drops the finger's references into the structure, and
// releases the finger's recycling pin - park long-lived idle fingers with
// Reset, or their pin stalls the epoch and retire lists hit their
// drop-to-GC cap.
func (f *SkipFinger[K, V]) Reset() {
	f.record = record[K, V]{l: f.l}
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

// start resolves the record to a search start for key k on level v by
// climbing the remembered tower: from level v upward, it skips every level
// whose remembered successor still orders below k - k lies beyond that
// level's bracket - and stops on the first level whose predecessor, after
// backlink recovery, orders below k; the search descends from there. Two
// keys a gap of d apart share their brackets above level ~log2 d, so the
// descent is O(log d) levels, and the climb itself reads no shared
// successor field: resuming never costs more than the search it replaces.
// A remembered predecessor that orders after k (the finger moved
// backwards) is skipped too - a higher one may still precede k. Reaching
// the record's top starts there, bracket or not; only a record with no
// usable level - a cold one among them - falls back to the head tower
// (findStart): a miss. start counts its hit or miss in the record, for
// report.
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
// node itself would skip that duty, stranding the tower after a
// Delete's sweep and livelocking an Insert retrying against it. On level
// 1 a dead node is marked, not superfluous, so backtrack already rules it
// out and an exact-key start is safe.
func (r *record[K, V]) start(p *Proc, k K, v int, strict bool) (*SLNode[K, V], int) {
	n, lv := r.climb(p, k, k, v, strict)
	if lv == 0 {
		r.misses++
		r.top = r.l.findStart(v)
		return r.l.head, r.top
	}
	r.hits++
	return n, lv
}

// report moves the search starts counted since the last report into p's
// finger counters.
func (r *record[K, V]) report(p *Proc) {
	if st := p.StatsOrNil(); st != nil {
		st.FingerHits += r.hits
		st.FingerMisses += r.misses
	}
	r.hits, r.misses = 0, 0
}

// climb is start for a run of keys first..last going down together: the
// brackets it skips are those that end at or before last, and the
// predecessor it stops on orders before first. It returns level 0 when no
// remembered level serves.
func (r *record[K, V]) climb(p *Proc, first, last K, v int, strict bool) (*SLNode[K, V], int) {
	l := r.l
	for i := v; i <= r.top && r.prevs[i-1] != nil; i++ {
		if i < r.top && l.nodeLeq(r.nexts[i-1], last, true) {
			continue
		}
		if n := l.backtrack(p, r.prevs[i-1], i); l.nodeLeq(n, first, strict || i > 1) {
			return n, i
		}
	}
	return nil, 0
}

// sweep physically removes the superfluous remainder of k's deleted
// tower. It must traverse every nonempty level >= 2, approaching k from a
// strict predecessor on each, so that searchRight encounters the tower's
// node as a successor and completes its deletion - a start that lands on
// (or beyond) the node would strand it. The deleted tower can be taller
// than anything the record has seen, so the sweep descends from the top
// of the structure, but on each level jumps to the recorded predecessor
// when that is still a strict predecessor of k: the strict search that
// found the tower refreshed every level it crossed, so each level's walk
// is a short hop instead of a scan from the head.
func (r *record[K, V]) sweep(p *Proc, k K) {
	l := r.l
	curr, lv := l.head, l.findStart(2)
	if lv > r.top {
		r.top = lv
	}
	for ; lv >= 2; lv-- {
		if c := r.prevs[lv-1]; c != nil {
			c = l.backtrack(p, c, lv)
			if l.nodeLeq(c, k, true) {
				curr = c
			}
		}
		curr, r.nexts[lv-1] = l.searchRight(p, k, curr, lv, false)
		r.prevs[lv-1] = curr
	}
}

// searchToLevel is SkipList.searchToLevel resumed from the record: it
// starts where start says and refreshes the bracket of every level it
// traverses.
func (r *record[K, V]) searchToLevel(p *Proc, k K, v int, strict bool) (*SLNode[K, V], *SLNode[K, V]) {
	curr, lv := r.start(p, k, v, strict)
	for ; lv > v; lv-- {
		curr, r.nexts[lv-1] = r.l.searchRight(p, k, curr, lv, strict)
		r.prevs[lv-1] = curr
	}
	curr, next := r.l.searchRight(p, k, curr, v, strict)
	r.prevs[v-1], r.nexts[v-1] = curr, next
	return curr, next
}

// insertOp is one recorded Insert through the record, as a finger or a
// batch runs it: the record then remembers the tower carrying k - new or
// the duplicate found - as its level-1 predecessor, so the next key of an
// ascending run starts there instead of one node back.
func (r *record[K, V]) insertOp(p *Proc, k K, v V) (*SLNode[K, V], bool) {
	sc, p := beginOp(r.l.tel, p, telemetry.OpInsert, 1)
	n, ok := r.insert(p, k, v)
	r.prevs[0] = n
	r.report(p)
	sc.end()
	return n, ok
}

// deleteOp is one recorded Delete through the record, as a finger or a
// batch runs it.
func (r *record[K, V]) deleteOp(p *Proc, k K) (*SLNode[K, V], bool) {
	sc, p := beginOp(r.l.tel, p, telemetry.OpDelete, 1)
	n, ok := r.remove(p, k)
	r.report(p)
	sc.end()
	return n, ok
}

// Search looks up k starting from the finger and returns its tower,
// or nil if k is absent.
func (f *SkipFinger[K, V]) Search(p *Proc, k K) *SLNode[K, V] {
	f.ensurePin()
	sc, p := beginOp(f.l.tel, p, telemetry.OpGet, 1)
	curr, _ := f.searchToLevel(p, k, 1, false)
	f.report(p)
	sc.end()
	return f.l.exact(curr, k)
}

// Get looks up k starting from the finger.
func (f *SkipFinger[K, V]) Get(p *Proc, k K) (V, bool) {
	if n := f.Search(p, k); n != nil {
		return n.val, true
	}
	var zero V
	return zero, false
}

// Insert adds k with value v starting every level search from the finger,
// which then remembers the tower carrying k as its level-1 predecessor.
func (f *SkipFinger[K, V]) Insert(p *Proc, k K, v V) (*SLNode[K, V], bool) {
	f.ensurePin()
	return f.insertOp(p, k, v)
}

// Delete removes k starting every level search from the finger.
func (f *SkipFinger[K, V]) Delete(p *Proc, k K) (*SLNode[K, V], bool) {
	f.ensurePin()
	return f.deleteOp(p, k)
}
