// Package sharded implements a range-partitioned ordered map over S
// independent lock-free skip lists (internal/core). A fixed, sorted set of
// S-1 splitter keys — chosen at construction, never rebalanced — carves
// the key space into S contiguous ranges; shard i owns the keys k with
// splitters[i-1] <= k < splitters[i] (the first and last ranges are
// open-ended). Every operation routes by binary search over the splitters.
//
// The point of the partition is the paper's amortized bound O(n(S) + c(S)):
// on one structure, every operation pays the full key count n(S) at its
// level, and point contention c(S) concentrates on the hot towers near the
// head. With the key space split S ways, an operation on shard i pays only
// n_i(S) — the keys that share its range — and conflicts only with the
// contention c_i(S) aimed at the same range; under a key distribution the
// splitters match, both shrink by ~S (DESIGN.md Section 9 derives this).
//
// The map preserves the per-operation semantics of the single skip list:
// each point operation is linearizable (it runs, unchanged, on one core
// skip list), batches are per-element linearizable but not atomic, and
// ordered iteration is weakly consistent. Because the partition is by
// range, cross-shard iteration is a concatenation of per-shard iterations
// in shard order — no merging is needed.
//
// Batch operations sort once at the map level and partition the sorted run
// into per-shard sub-runs with one binary search per splitter. Insert and
// delete batches execute each sub-run, in shard order, through one bracket
// record on the owning shard's stack; a get batch sends all its sub-runs down
// their shards together, in one shared descent. Either way the work is
// done on the caller's goroutine. The map starts no goroutines:
// concurrency comes from the callers (connections, workers), which
// already own one each — a sub-run averages a handful of keys, less
// work than handing it to another goroutine costs.
package sharded

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"repro/internal/core"
	"repro/internal/instrument"
	"repro/internal/telemetry"
)

// Map is a range-sharded ordered dictionary over S core skip lists.
// Construct with New or NewFunc. All methods are safe for concurrent use;
// every shard is lock-free, and the map layer adds no locks.
type Map[K comparable, V any] struct {
	compare   func(K, K) int
	splitters []K // len = Shards()-1, strictly increasing
	shards    []*core.SkipList[K, V]

	// tel, when non-nil, receives the map-level shard_ops routing counts;
	// the shards flush their own per-operation metrics into the same
	// recorder. Set before the map is shared.
	tel *telemetry.Recorder

	// cutsPool recycles the sub-run boundary buffers ([]int of length
	// Shards()+1) so batches allocate nothing.
	cutsPool sync.Pool
}

// New returns a map over a naturally ordered key type, partitioned by the
// given splitters. len(splitters)+1 — the shard count — must be a power of
// two, and the splitters must be strictly increasing; New panics otherwise
// (both are construction-time programming errors, not runtime conditions).
// An empty splitter set yields a single-shard map, which behaves exactly
// like one core skip list plus the routing counters.
//
// The core options apply to every shard (e.g. core.WithMaxLevel; shallower
// shards need less height: each holds ~1/S of the keys). Every shard is a
// core.NewSkipList, its tower heights a seeded hash of the key.
func New[K cmp.Ordered, V any](splitters []K, opts ...core.SkipListOption) *Map[K, V] {
	return newMap(cmp.Compare[K], splitters, func() *core.SkipList[K, V] {
		return core.NewSkipList[K, V](opts...)
	})
}

// NewFunc is New over an explicit comparison function, which must define a
// strict total order consistent with ==. Every shard is a
// core.NewSkipListFunc.
func NewFunc[K comparable, V any](compare func(K, K) int, splitters []K, opts ...core.SkipListOption) *Map[K, V] {
	return newMap(compare, splitters, func() *core.SkipList[K, V] {
		return core.NewSkipListFunc[K, V](compare, opts...)
	})
}

// newMap checks the splitters and builds one shard per range with
// newShard.
func newMap[K comparable, V any](compare func(K, K) int, splitters []K, newShard func() *core.SkipList[K, V]) *Map[K, V] {
	s := len(splitters) + 1
	if s&(s-1) != 0 {
		panic(fmt.Sprintf("sharded: %d splitters give %d shards, want a power of two", len(splitters), s))
	}
	for i := 1; i < len(splitters); i++ {
		if compare(splitters[i-1], splitters[i]) >= 0 {
			panic(fmt.Sprintf("sharded: splitters not strictly increasing at index %d", i))
		}
	}
	m := &Map[K, V]{
		compare:   compare,
		splitters: slices.Clone(splitters),
		shards:    make([]*core.SkipList[K, V], s),
	}
	for i := range m.shards {
		m.shards[i] = newShard()
	}
	m.cutsPool.New = func() any {
		c := make([]int, s+1)
		return &c
	}
	return m
}

// Shards returns the shard count S.
func (m *Map[K, V]) Shards() int { return len(m.shards) }

// Shard returns the i-th underlying skip list (0-based, shard order ==
// key order). Exposed for validators and statistics; mutating through it
// bypasses the map's routing counters but is otherwise safe — the shard
// accepts any key, though keys outside its range break ordered iteration.
func (m *Map[K, V]) Shard(i int) *core.SkipList[K, V] { return m.shards[i] }

// SetTelemetry attaches rec to the map and every shard: the shards flush
// their per-operation step counts and latencies, the map layer adds the
// shard_ops routing counts. Attach before the map is shared; nil detaches.
func (m *Map[K, V]) SetTelemetry(rec *telemetry.Recorder) {
	m.tel = rec
	for _, sh := range m.shards {
		sh.SetTelemetry(rec)
	}
}

// Telemetry returns the attached recorder, or nil.
func (m *Map[K, V]) Telemetry() *telemetry.Recorder { return m.tel }

// SetRetireHook attaches ONE hook to every shard's physical-deletion C&S
// sites (the same fn sees every retired node regardless of which shard it
// lived in), under the per-shard SetRetireHook contract: attach before
// the map is shared and never change it afterwards — the field is read
// without synchronization at every unlink. fn must be safe for concurrent
// use; nil detaches everywhere.
func (m *Map[K, V]) SetRetireHook(fn func(node any)) {
	for _, sh := range m.shards {
		sh.SetRetireHook(fn)
	}
}

// ShardFor returns the index of the shard owning key k: the number of
// splitters that order <= k, found by binary search.
func (m *Map[K, V]) ShardFor(k K) int {
	lo, hi := 0, len(m.splitters)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if m.compare(m.splitters[mid], k) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// countShard records n operations routed to a shard: into the caller's
// stats when it brought any, and into the map-level recorder when one is
// attached (exact, never sampled — routing is map state, not an inner
// operation's scratch).
func (m *Map[K, V]) countShard(st *instrument.OpStats, n uint64) {
	st.IncShard(n)
	if m.tel != nil {
		m.tel.AddCounter(instrument.CtrShardOps, n)
	}
}

// Insert adds k with value v to k's shard. Same contract as the skip
// list's Insert: returns the root node and true, or the existing root and
// false on a duplicate.
func (m *Map[K, V]) Insert(p *core.Proc, k K, v V) (*core.SLNode[K, V], bool) {
	m.countShard(p.StatsOrNil(), 1)
	return m.shards[m.ShardFor(k)].Insert(p, k, v)
}

// Get looks up k in its shard.
func (m *Map[K, V]) Get(p *core.Proc, k K) (V, bool) {
	m.countShard(p.StatsOrNil(), 1)
	return m.shards[m.ShardFor(k)].Get(p, k)
}

// Search looks up k in its shard and returns its root node, or nil.
func (m *Map[K, V]) Search(p *core.Proc, k K) *core.SLNode[K, V] {
	m.countShard(p.StatsOrNil(), 1)
	return m.shards[m.ShardFor(k)].Search(p, k)
}

// Delete removes k from its shard. Same contract as the skip list's
// Delete: false when k was absent or a concurrent deletion won.
func (m *Map[K, V]) Delete(p *core.Proc, k K) (*core.SLNode[K, V], bool) {
	m.countShard(p.StatsOrNil(), 1)
	return m.shards[m.ShardFor(k)].Delete(p, k)
}

// Len sums the shard sizes. Exact in quiescent states; within the number
// of in-flight operations otherwise (each shard's count is).
func (m *Map[K, V]) Len() int {
	n := 0
	for _, sh := range m.shards {
		n += sh.Len()
	}
	return n
}

// cutsForKeys fills cuts so that keys[cuts[i]:cuts[i+1]] is shard i's
// sub-run of the SORTED slice keys: cuts[i] is the index of the first key
// >= splitters[i-1]. One binary search per splitter, each over the
// remainder left by the previous one. Written inline (no sort.Search) so
// the predicate closure cannot escape and batches stay allocation-free.
func (m *Map[K, V]) cutsForKeys(keys []K, cuts []int) {
	cuts[0] = 0
	lo := 0
	for j, s := range m.splitters {
		hi := len(keys)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if m.compare(keys[mid], s) < 0 {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		cuts[j+1] = lo
	}
	cuts[len(m.splitters)+1] = len(keys)
}

// cutsForItems is cutsForKeys over a sorted KV slice.
func (m *Map[K, V]) cutsForItems(items []core.KV[K, V], cuts []int) {
	cuts[0] = 0
	lo := 0
	for j, s := range m.splitters {
		hi := len(items)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if m.compare(items[mid].Key, s) < 0 {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		cuts[j+1] = lo
	}
	cuts[len(m.splitters)+1] = len(items)
}

// GetBatch looks up every key in keys, sorting keys in place first; the
// same positional contract as the skip list's GetBatch (results land
// against the sorted order). The sub-runs are not looked up shard after
// shard: all of them go down their shards in the same rounds of one
// shared descent (core.GetBatchAcross), so a batch that leaves three keys
// in each shard still keeps a full group of searches in flight. Returns
// the number of keys found.
func (m *Map[K, V]) GetBatch(p *core.Proc, keys []K, vals []V, found []bool) int {
	slices.SortFunc(keys, m.compare)
	cp := m.cutsPool.Get().(*[]int)
	cuts := *cp
	m.cutsForKeys(keys, cuts)
	st := p.StatsOrNil()
	for i := range m.shards {
		if n := cuts[i+1] - cuts[i]; n > 0 {
			m.countShard(st, uint64(n))
		}
	}
	n := core.GetBatchAcross(p, m.shards, cuts, keys, vals, found)
	m.cutsPool.Put(cp)
	return n
}

// InsertBatch inserts every pair in items, sorting items in place by key
// first; same positional contract as the skip list's InsertBatch. Returns
// the number of new keys.
func (m *Map[K, V]) InsertBatch(p *core.Proc, items []core.KV[K, V], inserted []bool) int {
	slices.SortFunc(items, func(a, b core.KV[K, V]) int { return m.compare(a.Key, b.Key) })
	cp := m.cutsPool.Get().(*[]int)
	cuts := *cp
	m.cutsForItems(items, cuts)
	st := p.StatsOrNil()
	n := 0
	for i, sh := range m.shards {
		lo, hi := cuts[i], cuts[i+1]
		if lo == hi {
			continue
		}
		m.countShard(st, uint64(hi-lo))
		n += sh.InsertBatch(p, items[lo:hi], sub(inserted, lo, hi))
	}
	m.cutsPool.Put(cp)
	return n
}

// DeleteBatch deletes every key in keys, sorting keys in place first; same
// positional contract as the skip list's DeleteBatch. Returns the number
// of keys deleted.
func (m *Map[K, V]) DeleteBatch(p *core.Proc, keys []K, deleted []bool) int {
	slices.SortFunc(keys, m.compare)
	cp := m.cutsPool.Get().(*[]int)
	cuts := *cp
	m.cutsForKeys(keys, cuts)
	st := p.StatsOrNil()
	n := 0
	for i, sh := range m.shards {
		lo, hi := cuts[i], cuts[i+1]
		if lo == hi {
			continue
		}
		m.countShard(st, uint64(hi-lo))
		n += sh.DeleteBatch(p, keys[lo:hi], sub(deleted, lo, hi))
	}
	m.cutsPool.Put(cp)
	return n
}

// sub slices s to [lo:hi] when non-nil, preserving nil (the batch methods
// accept nil result slices).
func sub[T any](s []T, lo, hi int) []T {
	if s == nil {
		return nil
	}
	return s[lo:hi]
}

// Ascend calls fn for each key/value in ascending order until fn returns
// false. Because the partition is by range, visiting the shards in index
// order concatenates their already-ordered iterations — no merge. Within
// each shard the iteration carries the skip list's weak-consistency
// contract; a key that moves between shards cannot exist (keys never
// migrate), so the cross-shard concatenation adds no new anomalies: the
// scan observes each shard at a slightly different time, exactly like a
// single skip list's scan observes each key at a slightly different time.
func (m *Map[K, V]) Ascend(fn func(k K, v V) bool) {
	stopped := false
	for _, sh := range m.shards {
		sh.Ascend(func(k K, v V) bool {
			if !fn(k, v) {
				stopped = true
				return false
			}
			return true
		})
		if stopped {
			return
		}
	}
}

// AscendRange calls fn for keys in [from, to) in ascending order, visiting
// only the shards whose ranges intersect [from, to). The guarantees match
// the skip list's AscendRange (keys in range, strictly ascending, no
// duplicates; stable keys reported with their immutable values; concurrent
// updates may or may not be observed) — see the package comment for why
// concatenation preserves them.
func (m *Map[K, V]) AscendRange(p *core.Proc, from, to K, fn func(k K, v V) bool) {
	if m.compare(from, to) >= 0 {
		return
	}
	stopped := false
	for i := m.ShardFor(from); i <= m.ShardFor(to) && i < len(m.shards); i++ {
		m.shards[i].AscendRange(p, from, to, func(k K, v V) bool {
			if !fn(k, v) {
				stopped = true
				return false
			}
			return true
		})
		if stopped {
			return
		}
	}
}

// CheckStructure validates every shard's skip-list invariants plus the
// map's routing invariant: every key stored in shard i routes to shard i.
// Quiescent-state checker, for tests.
func (m *Map[K, V]) CheckStructure() error {
	for i, sh := range m.shards {
		if err := sh.CheckStructure(); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		var bad error
		sh.Ascend(func(k K, v V) bool {
			if got := m.ShardFor(k); got != i {
				bad = fmt.Errorf("key %v stored in shard %d but routes to shard %d", k, i, got)
				return false
			}
			return true
		})
		if bad != nil {
			return bad
		}
	}
	return nil
}
