package harris

import (
	"cmp"
	"sync/atomic"

	"repro/internal/heights"
	"repro/internal/instrument"
)

// DefaultMaxLevel is the default tower height cap for the baseline skip
// list, matching internal/core.
const DefaultMaxLevel = 32

// slNode is one tower of the baseline skip list. Unlike the paper's
// design (one node per level), this follows Pugh's representation used by
// Fraser: a single node with an array of per-level successor fields, each
// carrying its own mark bit.
type slNode[K cmp.Ordered, V any] struct {
	key   K
	val   V
	kind  nodeKind
	level int // tower height, >= 1
	succs []atomic.Pointer[succ2[K, V]]
}

// succ2 is the per-level composite successor field: (right, mark).
type succ2[K cmp.Ordered, V any] struct {
	right  *slNode[K, V]
	marked bool
}

func (n *slNode[K, V]) compareKey(k K) int {
	switch n.kind {
	case kindHead:
		return -1
	case kindTail:
		return 1
	default:
		return cmp.Compare(n.key, k)
	}
}

// SkipList is a lock-free skip list in the style of Fraser (2003), built
// from Harris's marking technique on every level: deletions mark each
// level's successor field top-down, and searches restart from the head
// when a pruning C&S fails. It serves as the baseline for experiments
// E4/E5.
type SkipList[K cmp.Ordered, V any] struct {
	maxLevel int
	head     *slNode[K, V]
	tail     *slNode[K, V]
	seed     uint64 // of the tower heights (package heights)
	size     atomic.Int64
}

// NewSkipList returns an empty baseline skip list whose tower heights are
// heights.Key(seed, key): with internal/core's seed it builds core's
// shape, so the two compare algorithms, not towers.
func NewSkipList[K cmp.Ordered, V any](maxLevel int, seed uint64) *SkipList[K, V] {
	if maxLevel < 2 {
		maxLevel = DefaultMaxLevel
	}
	l := &SkipList[K, V]{
		maxLevel: maxLevel,
		head:     &slNode[K, V]{kind: kindHead, level: maxLevel, succs: make([]atomic.Pointer[succ2[K, V]], maxLevel)},
		tail:     &slNode[K, V]{kind: kindTail, level: maxLevel, succs: make([]atomic.Pointer[succ2[K, V]], maxLevel)},
		seed:     seed,
	}
	for i := 0; i < maxLevel; i++ {
		l.head.succs[i].Store(&succ2[K, V]{right: l.tail})
		l.tail.succs[i].Store(&succ2[K, V]{right: nil})
	}
	return l
}

// Len returns the number of keys (exact when quiescent).
func (l *SkipList[K, V]) Len() int { return int(l.size.Load()) }

// find locates, on every level, the adjacent pair (pred, succ) around k,
// physically unlinking marked nodes it passes. A failed pruning C&S
// restarts the whole search from the head (the Harris-style recovery this
// baseline exists to exhibit). It returns the predecessors, the exact
// successor records read from them, the successors, and the node with key
// k on the bottom level if one is present.
func (l *SkipList[K, V]) find(p *instrument.Proc, k K) (
	preds []*slNode[K, V], recs []*succ2[K, V], succs []*slNode[K, V], found *slNode[K, V],
) {
	st := p.StatsOrNil()
	preds = make([]*slNode[K, V], l.maxLevel)
	recs = make([]*succ2[K, V], l.maxLevel)
	succs = make([]*slNode[K, V], l.maxLevel)
retry:
	for {
		pred := l.head
		for lv := l.maxLevel - 1; lv >= 0; lv-- {
			predRec := pred.succs[lv].Load()
			if predRec.marked {
				// pred got marked at this level between descent steps. Its
				// record is frozen, so retrying from the head is the only
				// recovery (the restart policy this baseline exhibits).
				// Without this check the identity CAS in Insert could link
				// a node after an already-spliced predecessor, losing it -
				// Harris's structural CAS encodes the same check in its
				// expected mark bit of 0.
				st.IncRestart()
				p.At(instrument.PtRestart)
				continue retry
			}
			curr := predRec.right
			for {
				currRec := curr.succs[lv].Load()
				st.IncNext()
				// Unlink marked nodes.
				for currRec.marked {
					p.At(instrument.PtBeforePhysicalCAS)
					ok := pred.succs[lv].CompareAndSwap(predRec, &succ2[K, V]{right: currRec.right})
					st.IncCAS(ok)
					if !ok {
						st.IncRestart()
						p.At(instrument.PtRestart)
						continue retry
					}
					predRec = pred.succs[lv].Load()
					if predRec.marked || predRec.right != currRec.right {
						st.IncRestart()
						p.At(instrument.PtRestart)
						continue retry
					}
					curr = predRec.right
					currRec = curr.succs[lv].Load()
					st.IncNext()
				}
				if curr.compareKey(k) < 0 {
					pred = curr
					predRec = currRec
					curr = currRec.right
					st.IncCurr()
				} else {
					break
				}
			}
			preds[lv] = pred
			recs[lv] = predRec
			succs[lv] = curr
		}
		if succs[0].compareKey(k) == 0 {
			found = succs[0]
		}
		p.At(instrument.PtSearchDone)
		return preds, recs, succs, found
	}
}

// Search looks up k; it returns the value and whether k is present.
func (l *SkipList[K, V]) Get(p *instrument.Proc, k K) (V, bool) {
	_, _, _, found := l.find(p, k)
	if found != nil {
		return found.val, true
	}
	var zero V
	return zero, false
}

// Contains reports whether k is present.
func (l *SkipList[K, V]) Contains(p *instrument.Proc, k K) bool {
	_, _, _, found := l.find(p, k)
	return found != nil
}

// Insert adds k with value v; false if already present.
func (l *SkipList[K, V]) Insert(p *instrument.Proc, k K, v V) bool {
	st := p.StatsOrNil()
	topLevel := heights.Of(heights.Key(l.seed, k), l.maxLevel)
	var n *slNode[K, V]
	for {
		preds, recs, succs, found := l.find(p, k)
		if found != nil {
			return false // duplicate key
		}
		if n == nil {
			n = &slNode[K, V]{key: k, val: v, level: topLevel,
				succs: make([]atomic.Pointer[succ2[K, V]], topLevel)}
		}
		for i := 0; i < topLevel; i++ {
			n.succs[i].Store(&succ2[K, V]{right: succs[i]})
		}
		// Link the bottom level: this is the linearization point.
		p.At(instrument.PtBeforeInsertCAS)
		ok := preds[0].succs[0].CompareAndSwap(recs[0], &succ2[K, V]{right: n})
		st.IncCAS(ok)
		if !ok {
			st.IncRestart()
			p.At(instrument.PtRestart)
			continue
		}
		l.size.Add(1)
		// Link the upper levels.
		for lv := 1; lv < topLevel; lv++ {
			for {
				if succs[lv] == n {
					break // already linked here by a helping find
				}
				ns := n.succs[lv].Load()
				if ns.marked {
					return true // concurrent delete caught up; stop building
				}
				if ns.right != succs[lv] {
					if !n.succs[lv].CompareAndSwap(ns, &succ2[K, V]{right: succs[lv]}) {
						continue
					}
				}
				ok := preds[lv].succs[lv].CompareAndSwap(recs[lv], &succ2[K, V]{right: n})
				st.IncCAS(ok)
				if ok {
					break
				}
				st.IncRestart()
				p.At(instrument.PtRestart)
				preds, recs, succs, _ = l.find(p, k)
				if n.succs[0].Load().marked {
					return true // node already deleted
				}
			}
		}
		return true
	}
}

// Delete removes k: mark every level's successor field from the top down
// (the bottom-level marking C&S decides the race), then prune via find.
func (l *SkipList[K, V]) Delete(p *instrument.Proc, k K) bool {
	st := p.StatsOrNil()
	_, _, _, found := l.find(p, k)
	if found == nil {
		return false
	}
	for lv := found.level - 1; lv >= 1; lv-- {
		s := found.succs[lv].Load()
		for !s.marked {
			p.At(instrument.PtBeforeMarkCAS)
			ok := found.succs[lv].CompareAndSwap(s, &succ2[K, V]{right: s.right, marked: true})
			st.IncCAS(ok)
			s = found.succs[lv].Load()
		}
	}
	for {
		s := found.succs[0].Load()
		if s.marked {
			return false // a concurrent deletion won
		}
		p.At(instrument.PtBeforeMarkCAS)
		ok := found.succs[0].CompareAndSwap(s, &succ2[K, V]{right: s.right, marked: true})
		st.IncCAS(ok)
		if ok {
			l.size.Add(-1)
			l.find(p, k) // physically unlink
			return true
		}
	}
}

// Ascend iterates keys in ascending order on the bottom level, skipping
// marked nodes.
func (l *SkipList[K, V]) Ascend(fn func(k K, v V) bool) {
	n := l.head.succs[0].Load().right
	for n.kind != kindTail {
		if !n.succs[0].Load().marked {
			if !fn(n.key, n.val) {
				return
			}
		}
		n = n.succs[0].Load().right
	}
}
