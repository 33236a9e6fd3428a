package lockfree

import (
	"cmp"
	"fmt"

	"repro/internal/core"
	"repro/internal/sharded"
)

// ShardedSkipList is a range-partitioned ordered dictionary over S
// independent lock-free skip lists: a fixed, sorted set of S-1 splitter
// keys carves the key space into contiguous ranges, and every operation
// routes to the shard owning its key by binary search. Point operations
// keep the skip list's semantics exactly — they run, unchanged, on one
// shard — while paying the per-shard cost O(log n_i) with contention
// c_i(S) confined to the shard's own towers: under a key distribution the
// splitters match, both shrink by ~S (see DESIGN.md Section 9 and the
// README's Sharding section for how to choose splitters).
//
// Batches sort once and split into per-shard sub-runs. Insert and delete
// batches thread each sub-run through the owning shard's pooled search
// finger, in shard order; a get batch sends all its sub-runs down their
// shards together, sixteen keys at a time, so their cache misses overlap
// (DESIGN.md Section 8). All of it happens on the caller's goroutine —
// the map itself starts none; callers that want shards worked
// concurrently batch from several goroutines.
// Ordered iteration concatenates the shards in key order — a range
// partition needs no merge — with the skip list's weak-consistency
// contract. Create with NewShardedSkipList.
type ShardedSkipList[K cmp.Ordered, V any] struct {
	m *sharded.Map[K, V]
}

var _ Map[int, any] = (*ShardedSkipList[int, any])(nil)

// NewShardedSkipList returns an empty sharded dictionary partitioned by
// the given splitters. len(splitters)+1 — the shard count — must be a
// power of two and the splitters strictly increasing; the constructor
// panics otherwise (a construction-time programming error). An empty
// splitter set gives a single shard, i.e. a plain skip list behind the
// routing layer. All Options apply; WithMaxLevel and WithSeed configure
// every shard.
func NewShardedSkipList[K cmp.Ordered, V any](splitters []K, opts ...Option) *ShardedSkipList[K, V] {
	cfg := applyConfig(opts)
	m := sharded.New[K, V](splitters, cfg.coreSkipListOpts()...)
	if cfg.tel != nil {
		m.SetTelemetry(cfg.tel.Recorder())
	}
	return &ShardedSkipList[K, V]{m: m}
}

// Shards returns the shard count S = len(splitters)+1.
func (s *ShardedSkipList[K, V]) Shards() int { return s.m.Shards() }

// Insert adds key with value to key's shard; false if key is already
// present.
func (s *ShardedSkipList[K, V]) Insert(key K, value V) bool {
	_, ok := s.m.Insert(nil, key, value)
	return ok
}

// Get returns the value stored at key.
func (s *ShardedSkipList[K, V]) Get(key K) (V, bool) { return s.m.Get(nil, key) }

// Contains reports whether key is present.
func (s *ShardedSkipList[K, V]) Contains(key K) bool {
	_, ok := s.m.Get(nil, key)
	return ok
}

// Delete removes key; false if absent (or a concurrent Delete won).
func (s *ShardedSkipList[K, V]) Delete(key K) bool {
	_, ok := s.m.Delete(nil, key)
	return ok
}

// Len sums the shard sizes; exact whenever no operations are in flight.
func (s *ShardedSkipList[K, V]) Len() int { return s.m.Len() }

// Ascend iterates all keys in ascending order, shard by shard. Weakly
// consistent under concurrent updates, like the skip list's Ascend.
func (s *ShardedSkipList[K, V]) Ascend(fn func(key K, value V) bool) { s.m.Ascend(fn) }

// AscendRange iterates keys in [from, to) in ascending order, visiting
// only the shards intersecting the range. Weakly consistent under
// concurrent updates, with the guarantees documented on
// SkipList.AscendRange.
func (s *ShardedSkipList[K, V]) AscendRange(from, to K, fn func(key K, value V) bool) {
	s.m.AscendRange(nil, from, to, fn)
}

// GetBatch looks up every key, sorting keys in place first; vals[i] and
// found[i] (when non-nil) report the result for the i-th sorted key.
// Returns the number of keys found.
func (s *ShardedSkipList[K, V]) GetBatch(keys []K, vals []V, found []bool) int {
	return s.m.GetBatch(nil, keys, vals, found)
}

// InsertBatch inserts every pair, sorting items in place by key first;
// inserted[i] (when non-nil) reports whether the i-th sorted pair was new.
// Returns the number of new keys.
func (s *ShardedSkipList[K, V]) InsertBatch(items []KV[K, V], inserted []bool) int {
	return s.m.InsertBatch(nil, items, inserted)
}

// DeleteBatch deletes every key, sorting keys in place first; deleted[i]
// (when non-nil) reports whether this call deleted the i-th sorted key.
// Returns the number of keys deleted.
func (s *ShardedSkipList[K, V]) DeleteBatch(keys []K, deleted []bool) int {
	return s.m.DeleteBatch(nil, keys, deleted)
}

// Map returns the underlying sharded map for callers that need the
// internal surface (per-shard access, Proc-carrying operations, structure
// validation in tests).
func (s *ShardedSkipList[K, V]) Map() *sharded.Map[K, V] { return s.m }

// EqualSplitters returns S-1 evenly spaced integer splitters partitioning
// [lo, hi) into S ranges — the right choice when keys are uniform over a
// known interval. S must be a power of two >= 1, and the interval must
// hold at least S keys, or some range would own none and the splitters
// would not increase strictly.
func EqualSplitters(lo, hi int, s int) []int {
	if s < 1 || s&(s-1) != 0 {
		panic("lockfree: shard count must be a power of two")
	}
	if hi-lo < s {
		panic(fmt.Sprintf("lockfree: EqualSplitters(%d, %d, %d): hi-lo = %d < s = %d, some shard would own no key", lo, hi, s, hi-lo, s))
	}
	out := make([]int, 0, s-1)
	span := hi - lo
	for i := 1; i < s; i++ {
		out = append(out, lo+span*i/s)
	}
	return out
}

// The compile-time guard below keeps the facade honest about the core
// surface it wraps: a sharded map must offer the same batch contract the
// skip list does.
var _ interface {
	GetBatch(p *core.Proc, keys []int, vals []int, found []bool) int
} = (*sharded.Map[int, int])(nil)

// RecycleCounts sums (recycled, dropped) reclamation totals over every
// shard's domain; see SkipList.RecycleCounts. Zeros when the map was not
// built WithRecycling.
func (s *ShardedSkipList[K, V]) RecycleCounts() (recycled, dropped uint64) {
	for i := 0; i < s.m.Shards(); i++ {
		r, d := s.m.Shard(i).RecycleCounts()
		recycled += r
		dropped += d
	}
	return recycled, dropped
}

// ForceReclaim attempts an epoch advance and drains quiesced retire
// batches on every shard; intended for quiescent points.
func (s *ShardedSkipList[K, V]) ForceReclaim() {
	for i := 0; i < s.m.Shards(); i++ {
		s.m.Shard(i).ForceReclaim(nil)
	}
}
