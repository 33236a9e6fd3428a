package core

import (
	"cmp"

	"repro/internal/instrument"
	"repro/internal/telemetry"
)

// List is the lock-free sorted linked list of Fomitchev and Ruppert. It
// implements a dictionary keyed by K with no duplicate keys. All methods
// are safe for concurrent use by any number of goroutines and the
// implementation is lock-free: a delayed or stopped goroutine never
// prevents others from completing operations.
//
// The zero value is not usable; construct with NewList.
type List[K comparable, V any] struct {
	// The fields above the pad are written once at construction and
	// read-only afterwards: they share cache lines safely.
	head    *Node[K, V]
	tail    *Node[K, V]
	compare func(K, K) int
	// tel, when non-nil, receives one RecordOp flush per completed
	// operation (see telemetry.go). Set before the list is shared.
	tel *telemetry.Recorder
	// retire, when non-nil, is called with each node whose physical-
	// deletion C&S succeeded on this list - exactly once per node, from
	// whichever goroutine won the C&S. Set before the list is shared.
	retire func(node any)
	// rec, when non-nil, recycles retired nodes through epoch-based
	// reclamation (recycle.go). Set by EnableRecycling before sharing.
	rec *recycler

	// _ keeps the read-mostly header off whatever line the allocator
	// places after it (and off size's shard slice header); size itself
	// stripes its writes across padded per-P shards, so Len maintenance
	// no longer serializes concurrent writers on one cache line.
	_    [cacheLinePad]byte
	size instrument.ShardedInt64
}

// cacheLinePad separates read-mostly struct headers from mutable state.
// 64 bytes is the line size of every amd64/arm64 part this will run on.
const cacheLinePad = 64

// NewList returns an empty list over a naturally ordered key type.
func NewList[K cmp.Ordered, V any]() *List[K, V] {
	return NewListFunc[K, V](cmp.Compare[K])
}

// NewListFunc returns an empty list ordered by the given comparison
// function, which must define a strict total order (return <0, 0, >0 for
// a<b, a==b, a>b) and be consistent with ==: compare(a,b)==0 iff a == b.
func NewListFunc[K comparable, V any](compare func(K, K) int) *List[K, V] {
	l := &List[K, V]{
		head:    &Node[K, V]{kind: kindHead},
		tail:    &Node[K, V]{kind: kindTail}, // its successor word stays (nil, 0, 0)
		compare: compare,
	}
	l.head.succ.store(clean(l.tail))
	l.size.Init()
	return l
}

// cmpNode orders node n against key k treating sentinels as -inf/+inf.
func (l *List[K, V]) cmpNode(n *Node[K, V], k K) int {
	switch n.kind {
	case kindHead:
		return -1
	case kindTail:
		return 1
	default:
		return l.compare(n.key, k)
	}
}

// nodeLeq reports n.key <= k (strict=false) or n.key < k (strict=true).
// The strict form implements the paper's "k - epsilon" searches.
func (l *List[K, V]) nodeLeq(n *Node[K, V], k K, strict bool) bool {
	c := l.cmpNode(n, k)
	if strict {
		return c < 0
	}
	return c <= 0
}

// SetRetireHook attaches fn to the list's physical-deletion C&S site: fn
// is called with each node whose unlinking C&S succeeds, exactly once per
// node, from the goroutine that won the C&S (so fn must be safe for
// concurrent use). This is the seam memory-reclamation schemes such as
// internal/ebr hang on.
//
// The hook MUST be attached before the list is shared and never changed
// afterwards: l.retire is a plain field, written here without
// synchronization and read at every physical-deletion C&S. A store that
// races an operation is a data race (the race detector will flag it),
// and even if it happens to win, deletions already past the nil check
// miss the hook. Attach-then-share is the contract; nil detaches (under
// the same single-threaded condition).
func (l *List[K, V]) SetRetireHook(fn func(node any)) { l.retire = fn }

// Len returns the number of keys in the list. The count is maintained at
// linearization points (insertion C&S, marking C&S) on a sharded counter,
// so it is exact in any quiescent state and within the number of in-flight
// operations otherwise (each in-flight delta lands in exactly one shard
// and the sum reads every shard once).
func (l *List[K, V]) Len() int { return int(l.size.Load()) }

// Head returns the head sentinel; used by invariant checkers and the skip
// list. The sentinel itself never carries a key.
func (l *List[K, V]) Head() *Node[K, V] { return l.head }

// Tail returns the tail sentinel.
func (l *List[K, V]) Tail() *Node[K, V] { return l.tail }

// search is the paper's SEARCH routine (Figure 3); Search in telemetry.go
// wraps it with the optional metrics flush.
func (l *List[K, V]) search(p *Proc, k K) *Node[K, V] {
	curr, _ := l.searchFrom(p, k, l.head, false)
	if l.cmpNode(curr, k) == 0 {
		return curr
	}
	return nil
}

// get looks up k and returns its value. Convenience wrapper over search.
func (l *List[K, V]) get(p *Proc, k K) (V, bool) {
	if n := l.search(p, k); n != nil {
		return n.val, true
	}
	var zero V
	return zero, false
}

// insert adds k with value v. It returns the new node and true on success,
// or the existing node and false if k is already present.
// This is the paper's INSERT routine (Figure 5).
func (l *List[K, V]) insert(p *Proc, k K, v V) (*Node[K, V], bool) {
	return l.insertFrom(p, k, v, l.head)
}

// insertFrom is insert with the initial search started at from instead of
// the head. from must order <= k and must have been in the list at some
// point (the head always qualifies); the paper's SearchFrom is correct
// from any such node, which is what the finger and batch paths exploit.
func (l *List[K, V]) insertFrom(p *Proc, k K, v V, from *Node[K, V]) (*Node[K, V], bool) {
	st := p.StatsOrNil()
	prev, next := l.searchFrom(p, k, from, false)
	if l.cmpNode(prev, k) == 0 { // duplicate key
		return prev, false
	}
	newNode := l.newNode(p, k, v)
	var bo casBackoff
	for {
		prevSucc := prev.loadSucc()
		if prevSucc.flagged() {
			// The predecessor is flagged: help the corresponding
			// deletion complete before retrying (Insert lines 7-8).
			l.helpFlagged(p, prev, prevSucc.right())
		} else if !prevSucc.marked() && prevSucc.right() == next {
			// Insertion attempt (Insert lines 10-11): the C&S expects
			// (next_node, 0, 0), the word just loaded.
			newNode.succ.store(clean(next))
			p.At(PtBeforeInsertCAS)
			ok := prev.succ.cas(prevSucc, clean(newNode))
			st.IncCAS(ok)
			if ok {
				l.size.Add(1)
				return newNode, true
			}
			// Failure (Insert lines 14-18): inspect the value that beat
			// us and recover accordingly.
			p.At(PtAfterInsertCASFail)
			bo.onFail(st)
			result := prev.loadSucc()
			if result.flagged() {
				l.helpFlagged(p, prev, result.right())
			}
			for prev.marked() {
				st.IncBacklink()
				p.At(PtBacklinkStep)
				prev = prev.backlink.Load()
			}
		} else {
			// The successor field changed since our search: redirected,
			// marked, or both. Walk backlinks past any marked nodes,
			// then re-search from there (never from the head).
			st.IncCAS(false) // the paper's C&S would have been attempted and failed
			bo.onFail(st)
			if prevSucc.marked() {
				for prev.marked() {
					st.IncBacklink()
					p.At(PtBacklinkStep)
					prev = prev.backlink.Load()
				}
			}
		}
		prev, next = l.searchFrom(p, k, prev, false) // Insert line 19
		if l.cmpNode(prev, k) == 0 {
			// Duplicate inserted concurrently (lines 20-22). newNode was
			// never published, so it can go straight back to the free list.
			l.freeNode(newNode)
			return prev, false
		}
	}
}

// remove deletes k. It returns the deleted node and true on success, or
// nil and false if k was absent (or a concurrent deletion won the race).
// This is the paper's DELETE routine (Figure 4).
func (l *List[K, V]) remove(p *Proc, k K) (*Node[K, V], bool) {
	prev, delNode := l.searchFrom(p, k, l.head, true) // SearchFrom(k - eps, head)
	if l.cmpNode(delNode, k) != 0 {                   // k is not in the list
		return nil, false
	}
	return l.removeAt(p, prev, delNode)
}

// removeAt runs the three deletion steps against delNode, whose last known
// predecessor is prev - the body of DELETE after the search (Figure 4).
// Shared by remove and the finger/batch deletion paths.
func (l *List[K, V]) removeAt(p *Proc, prev, delNode *Node[K, V]) (*Node[K, V], bool) {
	prev, result := l.tryFlag(p, prev, delNode)
	if prev != nil {
		l.helpFlagged(p, prev, delNode)
	}
	if !result {
		return nil, false
	}
	return delNode, true
}

// searchFrom is the paper's SEARCHFROM routine (Figure 3). Starting from
// curr (whose key must order <= k, or < k in strict mode), it returns two
// nodes n1, n2 such that at some instant during the call n1.right == n2
// and n1.key <= k < n2.key (strict: n1.key < k <= n2.key). It physically
// deletes any logically deleted node it passes by calling helpMarked.
func (l *List[K, V]) searchFrom(p *Proc, k K, curr *Node[K, V], strict bool) (*Node[K, V], *Node[K, V]) {
	st := p.StatsOrNil()
	next := curr.right()
	for l.nodeLeq(next, k, strict) {
		// Ensure that either next is unmarked, or both curr and next are
		// marked and curr was marked earlier (SearchFrom lines 3-6).
		for {
			nextSucc := next.loadSucc()
			if !nextSucc.marked() {
				break
			}
			currSucc := curr.loadSucc()
			if currSucc.marked() && currSucc.right() == next {
				break
			}
			if currSucc.right() == next {
				l.helpMarked(p, curr, next)
			}
			next = curr.right()
			st.IncNext()
		}
		if l.nodeLeq(next, k, strict) {
			curr = next
			st.IncCurr()
			next = curr.right()
			st.IncNext()
		}
	}
	p.At(PtSearchDone)
	return curr, next
}

// helpMarked attempts the physical deletion of the marked node delNode and
// the unflagging of prevNode with a single C&S (Figure 3, HELPMARKED).
func (l *List[K, V]) helpMarked(p *Proc, prevNode, delNode *Node[K, V]) {
	p.StatsOrNil().IncHelp()
	next := delNode.right() // frozen: delNode is marked
	prevSucc := prevNode.loadSucc()
	if prevSucc.right() != delNode || prevSucc.marked() || !prevSucc.flagged() {
		return // someone already completed (or the state moved on)
	}
	p.At(PtBeforePhysicalCAS)
	ok := prevNode.succ.cas(prevSucc, clean(next))
	p.StatsOrNil().IncCAS(ok)
	if ok {
		// The winning C&S is the unique moment delNode leaves the list:
		// hand it to the process's reclamation scheme, if any, to the
		// structure-level retire hook (internal/ebr integration), and to
		// the recycler's epoch-stamped retire list.
		p.RetireNode(delNode)
		if l.retire != nil {
			l.retire(delNode)
		}
		l.retireNode(p, delNode)
	}
}

// helpFlagged completes the deletion of delNode, the successor of the
// flagged node prevNode: set the backlink, mark, then physically delete
// (Figure 4, HELPFLAGGED).
func (l *List[K, V]) helpFlagged(p *Proc, prevNode, delNode *Node[K, V]) {
	p.StatsOrNil().IncHelp()
	p.At(PtHelpFlagged)
	delNode.backlink.Store(prevNode)
	if !delNode.marked() {
		l.tryMark(p, delNode)
	}
	l.helpMarked(p, prevNode, delNode)
}

// tryMark marks delNode, helping any deletion that flagged it first
// (Figure 4, TRYMARK). On return delNode is marked.
func (l *List[K, V]) tryMark(p *Proc, delNode *Node[K, V]) {
	st := p.StatsOrNil()
	var bo casBackoff
	for {
		s := delNode.loadSucc()
		if s.marked() {
			return
		}
		if s.flagged() {
			// Failure due to flagging: help that deletion first.
			l.helpFlagged(p, delNode, s.right())
			continue
		}
		p.At(PtBeforeMarkCAS)
		ok := delNode.succ.cas(s, marked(s.right()))
		st.IncCAS(ok)
		if ok {
			l.size.Add(-1) // linearization point of the deletion
			return
		}
		bo.onFail(st)
	}
}

// tryFlag attempts to flag the predecessor of target (Figure 5, TRYFLAG).
// prev is the last node known to precede target. It returns:
//
//   - (pred, true) if this call flagged target's predecessor;
//   - (pred, false) if another process flagged it (that deletion will
//     report success);
//   - (nil, false) if target was deleted from the list.
func (l *List[K, V]) tryFlag(p *Proc, prev, target *Node[K, V]) (*Node[K, V], bool) {
	st := p.StatsOrNil()
	var bo casBackoff
	for {
		prevSucc := prev.loadSucc()
		if prevSucc == flagged(target) {
			return prev, false // predecessor already flagged (line 2-3)
		}
		if prevSucc == clean(target) {
			p.At(PtBeforeFlagCAS)
			ok := prev.succ.cas(prevSucc, flagged(target))
			st.IncCAS(ok)
			if ok {
				return prev, true // successful flagging (lines 5-6)
			}
			result := prev.loadSucc()
			if result == flagged(target) {
				return prev, false // concurrent flagging won (lines 7-8)
			}
			bo.onFail(st)
		} else {
			// The paper's C&S at line 4 would have been attempted and
			// failed with this value.
			st.IncCAS(false)
			bo.onFail(st)
		}
		// Possibly a failure due to marking: traverse backlinks to the
		// first unmarked node (lines 9-10).
		for prev.marked() {
			st.IncBacklink()
			p.At(PtBacklinkStep)
			prev = prev.backlink.Load()
		}
		// Re-locate target's predecessor (lines 11-13).
		var delNode *Node[K, V]
		prev, delNode = l.searchFrom(p, target.key, prev, true)
		if delNode != target {
			return nil, false // target got deleted
		}
	}
}
