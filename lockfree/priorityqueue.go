package lockfree

import (
	"cmp"
	"sync/atomic"
)

// PriorityQueue is a lock-free concurrent priority queue built on the
// skip list — the construction of Lotan-Shavit and Sundell-Tsigas that the
// paper's related work discusses. Push never fails; PopMin extracts an
// element with minimal priority. Duplicate priorities are allowed: entries
// are tie-broken by insertion sequence, so PopMin is FIFO within a
// priority class.
type PriorityQueue[P cmp.Ordered, V any] struct {
	sl  skipBody[pqKey[P], V]
	seq atomic.Uint64
}

// pqKey orders entries by priority, then by insertion sequence.
type pqKey[P cmp.Ordered] struct {
	priority P
	seq      uint64
}

func comparePQKey[P cmp.Ordered](a, b pqKey[P]) int {
	if c := cmp.Compare(a.priority, b.priority); c != 0 {
		return c
	}
	return cmp.Compare(a.seq, b.seq)
}

// NewPriorityQueue returns an empty queue. Options configure the
// underlying skip list.
func NewPriorityQueue[P cmp.Ordered, V any](opts ...Option) *PriorityQueue[P, V] {
	return &PriorityQueue[P, V]{sl: newSkipBody[pqKey[P], V](comparePQKey[P], opts)}
}

// Push inserts value with the given priority.
func (q *PriorityQueue[P, V]) Push(priority P, value V) {
	key := pqKey[P]{priority: priority, seq: q.seq.Add(1)}
	// seq is unique per queue, so the insert cannot hit a duplicate key.
	q.sl.Insert(key, value)
}

// PopMin removes and returns an element with minimal priority; ok is false
// when the queue is empty. Under concurrency, competing consumers each
// receive distinct elements.
func (q *PriorityQueue[P, V]) PopMin() (priority P, value V, ok bool) {
	k, v, ok := q.sl.DeleteMin()
	return k.priority, v, ok
}

// PeekMin returns an element with minimal priority without removing it.
func (q *PriorityQueue[P, V]) PeekMin() (priority P, value V, ok bool) {
	k, v, ok := q.sl.Min()
	return k.priority, v, ok
}

// Len returns the number of queued elements (exact when quiescent).
func (q *PriorityQueue[P, V]) Len() int { return q.sl.Len() }
