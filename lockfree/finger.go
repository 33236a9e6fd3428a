package lockfree

import "repro/internal/core"

// KV pairs a key with a value for the InsertBatch methods.
type KV[K comparable, V any] = core.KV[K, V]

// WithRetireHook attaches fn to the structure's physical-deletion C&S
// sites: fn is called with each node whose unlinking C&S succeeds -
// exactly once per node, from whichever goroutine won the C&S, so fn must
// be safe for concurrent use. For skip lists fn fires once per level node
// of a deleted tower — the root usually FIRST (Delete unlinks level 1 to
// linearize, then sweeps the levels above, whose nodes still hold edges
// into the root). This is the seam memory-reclamation
// schemes (see repro/internal/ebr) hang on; most callers, who rely on the
// Go garbage collector, do not need it.
func WithRetireHook(fn func(node any)) Option {
	return func(c *config) { c.retire = fn }
}

// ListFinger is a cursor over a List (or ListFunc): it remembers where the
// previous operation ended and starts the next search there when the key
// is >= the remembered position, falling back to the head otherwise. In
// workloads with key locality - clustered accesses, sorted streams - this
// amortizes the search out of the hot path.
//
// A finger is owned by a single goroutine; the underlying list remains
// safe for any number of concurrent fingers and plain operations, and
// every operation through a finger is as linearizable as its plain
// counterpart. If the remembered node is concurrently deleted the finger
// recovers over the deletion's backlinks - it never restarts from the
// head unless the key ordering forces it. It is the skip list's finger
// (see SkipListFinger) over the list's one level: after an Insert it stands
// on the new node, so an ascending run of inserts pays one hop each.
// Obtain one from List.Finger or ListFunc.Finger.
type ListFinger[K comparable, V any] struct {
	f *core.SkipFinger[K, V]
}

// Finger returns a new finger over the list, positioned at the head.
func (s *List[K, V]) Finger() *ListFinger[K, V] {
	return &ListFinger[K, V]{f: s.l.NewFinger()}
}

// Finger returns a new finger over the list, positioned at the head.
func (s *ListFunc[K, V]) Finger() *ListFinger[K, V] {
	return &ListFinger[K, V]{f: s.l.NewFinger()}
}

// Insert adds key with value, searching from the finger; false if key is
// already present.
func (s *ListFinger[K, V]) Insert(key K, value V) bool {
	_, ok := s.f.Insert(nil, key, value)
	return ok
}

// Get returns the value stored at key, searching from the finger.
func (s *ListFinger[K, V]) Get(key K) (V, bool) { return s.f.Get(nil, key) }

// Contains reports whether key is present, searching from the finger.
func (s *ListFinger[K, V]) Contains(key K) bool {
	_, ok := s.f.Get(nil, key)
	return ok
}

// Delete removes key, searching from the finger; false if absent (or a
// concurrent Delete won).
func (s *ListFinger[K, V]) Delete(key K) bool {
	_, ok := s.f.Delete(nil, key)
	return ok
}

// Reset forgets the remembered position: the next operation searches from
// the head and the finger drops its reference into the structure.
func (s *ListFinger[K, V]) Reset() { s.f.Reset() }

// SkipListFinger is a cursor over a SkipList (or SkipListFunc): it
// remembers the predecessor tower of the last search, one node per level,
// and starts the next search there when the key is >= the remembered
// position. See ListFinger for the ownership and consistency contract.
// Obtain one from SkipList.Finger or SkipListFunc.Finger.
type SkipListFinger[K comparable, V any] struct {
	f *core.SkipFinger[K, V]
}

// Finger returns a new finger over the skip list, positioned at the head
// tower.
func (s *SkipList[K, V]) Finger() *SkipListFinger[K, V] {
	return &SkipListFinger[K, V]{f: s.l.NewFinger()}
}

// Finger returns a new finger over the skip list, positioned at the head
// tower.
func (s *SkipListFunc[K, V]) Finger() *SkipListFinger[K, V] {
	return &SkipListFinger[K, V]{f: s.l.NewFinger()}
}

// Insert adds key with value, searching from the finger; false if key is
// already present.
func (s *SkipListFinger[K, V]) Insert(key K, value V) bool {
	_, ok := s.f.Insert(nil, key, value)
	return ok
}

// Get returns the value stored at key, searching from the finger.
func (s *SkipListFinger[K, V]) Get(key K) (V, bool) { return s.f.Get(nil, key) }

// Contains reports whether key is present, searching from the finger.
func (s *SkipListFinger[K, V]) Contains(key K) bool {
	_, ok := s.f.Get(nil, key)
	return ok
}

// Delete removes key, searching from the finger; false if absent (or a
// concurrent Delete won).
func (s *SkipListFinger[K, V]) Delete(key K) bool {
	_, ok := s.f.Delete(nil, key)
	return ok
}

// Reset forgets the remembered position.
func (s *SkipListFinger[K, V]) Reset() { s.f.Reset() }

// The batch methods sort their argument slice IN PLACE. InsertBatch and
// DeleteBatch then thread one finger through the sorted keys, so a batch
// over a clustered key range costs one full search plus short hops -
// instead of one full search per element. GetBatch sends its sorted keys
// down the structure together instead (sixteen at a time, each sixteen
// resuming where the previous ones went down): a step that several keys
// share is taken once, and on a skip list the steps they do not share wait
// for memory side by side instead of one after another. The List's batches
// are the SkipList's, on its one level. Each element remains an
// independent linearizable operation; the batch as a whole is not atomic.
// Result slices may be nil; when non-nil they must have len >= len(keys)
// and are filled positionally against the SORTED order.

// GetBatch looks up every key, sorting keys in place first; vals[i] and
// found[i] (when non-nil) report the result for the i-th sorted key.
// Returns the number of keys found.
func (s *List[K, V]) GetBatch(keys []K, vals []V, found []bool) int {
	return s.l.GetBatch(nil, keys, vals, found)
}

// InsertBatch inserts every pair, sorting items in place by key first;
// inserted[i] (when non-nil) reports whether the i-th sorted pair was new.
// Returns the number of new keys.
func (s *List[K, V]) InsertBatch(items []KV[K, V], inserted []bool) int {
	return s.l.InsertBatch(nil, items, inserted)
}

// DeleteBatch deletes every key, sorting keys in place first; deleted[i]
// (when non-nil) reports whether this call deleted the i-th sorted key.
// Returns the number of keys deleted.
func (s *List[K, V]) DeleteBatch(keys []K, deleted []bool) int {
	return s.l.DeleteBatch(nil, keys, deleted)
}

// GetBatch looks up every key, sorting keys in place first; see
// List.GetBatch.
func (s *ListFunc[K, V]) GetBatch(keys []K, vals []V, found []bool) int {
	return s.l.GetBatch(nil, keys, vals, found)
}

// InsertBatch inserts every pair, sorting items in place by key first; see
// List.InsertBatch.
func (s *ListFunc[K, V]) InsertBatch(items []KV[K, V], inserted []bool) int {
	return s.l.InsertBatch(nil, items, inserted)
}

// DeleteBatch deletes every key, sorting keys in place first; see
// List.DeleteBatch.
func (s *ListFunc[K, V]) DeleteBatch(keys []K, deleted []bool) int {
	return s.l.DeleteBatch(nil, keys, deleted)
}

// GetBatch looks up every key, sorting keys in place first; see
// List.GetBatch.
func (s *SkipList[K, V]) GetBatch(keys []K, vals []V, found []bool) int {
	return s.l.GetBatch(nil, keys, vals, found)
}

// InsertBatch inserts every pair, sorting items in place by key first; see
// List.InsertBatch.
func (s *SkipList[K, V]) InsertBatch(items []KV[K, V], inserted []bool) int {
	return s.l.InsertBatch(nil, items, inserted)
}

// DeleteBatch deletes every key, sorting keys in place first; see
// List.DeleteBatch.
func (s *SkipList[K, V]) DeleteBatch(keys []K, deleted []bool) int {
	return s.l.DeleteBatch(nil, keys, deleted)
}

// GetBatch looks up every key, sorting keys in place first; see
// List.GetBatch.
func (s *SkipListFunc[K, V]) GetBatch(keys []K, vals []V, found []bool) int {
	return s.l.GetBatch(nil, keys, vals, found)
}

// InsertBatch inserts every pair, sorting items in place by key first; see
// List.InsertBatch.
func (s *SkipListFunc[K, V]) InsertBatch(items []KV[K, V], inserted []bool) int {
	return s.l.InsertBatch(nil, items, inserted)
}

// DeleteBatch deletes every key, sorting keys in place first; see
// List.DeleteBatch.
func (s *SkipListFunc[K, V]) DeleteBatch(keys []K, deleted []bool) int {
	return s.l.DeleteBatch(nil, keys, deleted)
}
