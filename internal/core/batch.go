package core

import "slices"

// Batch operations: sort the keys once, then let the searches share what
// sorted keys have in common. The insert and delete batches thread a
// single finger through the keys, so each element pays only the short hop
// from its predecessor instead of a full search: a batch of k keys costs
// one full search plus, per further element, the gap to its predecessor on
// a List and the logarithm of that gap on a skip list. The get batch does
// not move from key to key at all: its keys go down the structure together
// (descent.go). DESIGN.md Section 8 derives both bounds from the paper's
// SearchFrom analysis. Each element is still an independent linearizable
// operation; the batch as a whole is NOT atomic. A List's batches are
// these, on its one level.
//
// All batch methods sort their argument slice in place and report results
// positionally against the sorted order. Result slices may be nil (the
// caller only wants the count) but must have len >= len(keys) otherwise.
// The methods allocate nothing beyond what the operations themselves
// require (inserted nodes): the threading finger - which would escape
// through the slSearcher interface - is recycled through a pool, and a
// descent's segments and bracket record are fixed arrays on the stack.

// KV pairs a key with a value for InsertBatch.
type KV[K comparable, V any] struct {
	Key   K
	Value V
}

// batchFinger returns a finger for one batch operation. A stack finger
// would escape: every operation passes the finger through the slSearcher
// interface. Recycling heap fingers keeps the steady-state allocation
// count of a batch at zero.
func (l *SkipList[K, V]) batchFinger() *SkipFinger[K, V] {
	if f, ok := l.fpool.Get().(*SkipFinger[K, V]); ok {
		return f
	}
	return l.NewFinger()
}

// putBatchFinger resets f - a pooled finger must not pin deleted nodes -
// and returns it to the pool.
func (l *SkipList[K, V]) putBatchFinger(f *SkipFinger[K, V]) {
	f.Reset()
	l.fpool.Put(f)
}

// GetBatch looks up every key in keys, sorting keys in place first. When
// vals or found is non-nil, vals[i] and found[i] report the result for
// the i-th key of the SORTED slice. Returns the number of keys found. The
// sorted keys do not thread a finger: they go down the structure together
// (descent.go).
func (l *SkipList[K, V]) GetBatch(p *Proc, keys []K, vals []V, found []bool) int {
	slices.SortFunc(keys, l.compare)
	return GetBatchAcross(p, []*SkipList[K, V]{l}, []int{0, len(keys)}, keys, vals, found)
}

// InsertBatch inserts every pair in items, sorting items in place by key
// first. When inserted is non-nil, inserted[i] reports whether the i-th
// pair of the SORTED slice was newly inserted (false: duplicate key).
// Returns the number of new keys.
func (l *SkipList[K, V]) InsertBatch(p *Proc, items []KV[K, V], inserted []bool) int {
	slices.SortFunc(items, func(a, b KV[K, V]) int { return l.compare(a.Key, b.Key) })
	f := l.batchFinger()
	n := 0
	for i := range items {
		_, ok := f.Insert(p, items[i].Key, items[i].Value)
		if ok {
			n++
		}
		if inserted != nil {
			inserted[i] = ok
		}
	}
	l.putBatchFinger(f)
	return n
}

// DeleteBatch deletes every key in keys, sorting keys in place first.
// When deleted is non-nil, deleted[i] reports whether this call deleted
// the i-th key of the SORTED slice. Returns the number of keys deleted.
func (l *SkipList[K, V]) DeleteBatch(p *Proc, keys []K, deleted []bool) int {
	slices.SortFunc(keys, l.compare)
	f := l.batchFinger()
	n := 0
	for i, k := range keys {
		_, ok := f.Delete(p, k)
		if ok {
			n++
		}
		if deleted != nil {
			deleted[i] = ok
		}
	}
	l.putBatchFinger(f)
	return n
}
