package core

import "slices"

// Batch operations: sort the keys once, then let the searches share what
// sorted keys have in common. The insert and delete batches thread one
// bracket record (finger.go) through the keys, so each element pays only
// the short hop from its predecessor instead of a full search: a batch of
// k keys costs one full search plus, per further element, the gap to its
// predecessor on a List and the logarithm of that gap on a skip list. The
// get batch does not move from key to key at all: its keys go down the
// structure together (descent.go). DESIGN.md Section 8 derives both
// bounds from the paper's SearchFrom analysis. Each element is still an
// independent linearizable operation; the batch as a whole is NOT atomic.
// A List's batches are these, on its one level.
//
// All batch methods sort their argument slice in place and report results
// positionally against the sorted order. Result slices may be nil (the
// caller only wants the count) but must have len >= len(keys) otherwise.
// The methods allocate nothing beyond what the operations themselves
// require (inserted nodes): an insert or delete batch keeps its record on
// the stack and holds one recycling pin for the whole call, and a
// descent's segments are fixed arrays on the stack.

// KV pairs a key with a value for InsertBatch.
type KV[K comparable, V any] struct {
	Key   K
	Value V
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
	defer l.opPin(p).Unpin()
	r := record[K, V]{l: l}
	n := 0
	for i := range items {
		_, ok := r.insertOp(p, items[i].Key, items[i].Value)
		if ok {
			n++
		}
		if inserted != nil {
			inserted[i] = ok
		}
	}
	return n
}

// DeleteBatch deletes every key in keys, sorting keys in place first.
// When deleted is non-nil, deleted[i] reports whether this call deleted
// the i-th key of the SORTED slice. Returns the number of keys deleted.
func (l *SkipList[K, V]) DeleteBatch(p *Proc, keys []K, deleted []bool) int {
	slices.SortFunc(keys, l.compare)
	defer l.opPin(p).Unpin()
	r := record[K, V]{l: l}
	n := 0
	for i, k := range keys {
		_, ok := r.deleteOp(p, k)
		if ok {
			n++
		}
		if deleted != nil {
			deleted[i] = ok
		}
	}
	return n
}
