package core

import (
	"cmp"

	"repro/internal/heights"
	"repro/internal/instrument"
	"repro/internal/telemetry"
)

// DefaultMaxLevel is the default height of the head and tail towers.
// Interior towers are capped one below it, so level DefaultMaxLevel is
// always an empty express lane, which keeps the upward search for a start
// level bounded.
const DefaultMaxLevel = 32

// SkipList is the lock-free skip list of Fomitchev and Ruppert (Section 4).
// Each level is an instance of the paper's lock-free linked list; a key is
// a tower (one object, skipnode.go) linked bottom-up on insertion and
// unlinked root-first, then top-down, on deletion. Searches physically
// delete any superfluous tower nodes they encounter so that backlink chains
// on a level cannot be traversed repeatedly.
//
// All methods are safe for concurrent use and the implementation is
// lock-free. Construct with NewSkipList.
type SkipList[K comparable, V any] struct {
	// The fields above the pad are written once at construction and
	// read-only afterwards: they share cache lines safely.
	compare  func(K, K) int
	maxLevel int
	head     *SLNode[K, V] // sentinel towers of maxLevel cells: every
	tail     *SLNode[K, V] // level starts at head and ends at tail
	// bits returns a new tower's height bits (heights.Of): a seeded hash
	// of its key from NewSkipList, a seeded generator's next word from
	// NewSkipListFunc. Safe for concurrent use.
	bits func(K) uint64
	// tel, when non-nil, records every operation (see telemetry.go).
	// Set before the skip list is shared.
	tel *telemetry.Recorder
	// retire, when non-nil, is called with the tower at each of its
	// levels' physical-deletion C&S - exactly once per level, from
	// whichever goroutine won the C&S. Set before the skip list is shared.
	retire func(node any)
	// rec, when non-nil, recycles retired towers through epoch-based
	// reclamation (recycle.go). Set by WithRecycling at construction.
	rec *recycler

	// _ keeps the read-mostly header above off whatever line the allocator
	// places after it; size stripes its writes across padded per-P shards,
	// so Len maintenance does not serialize concurrent writers on one line.
	_    [cacheLinePad]byte
	size instrument.ShardedInt64
}

// cacheLinePad separates read-mostly struct headers from mutable state.
// 64 bytes is the line size of every amd64/arm64 part this will run on.
const cacheLinePad = 64

// SkipListOption configures a SkipList.
type SkipListOption func(*skipListConfig)

type skipListConfig struct {
	maxLevel int
	seed     uint64
	retire   func(node any)
	recycle  bool
}

// WithMaxLevel sets the head-tower height (interior towers grow to at most
// maxLevel-1). maxLevel must be at least 2; values outside [2, 64] are
// clamped.
func WithMaxLevel(maxLevel int) SkipListOption {
	return func(c *skipListConfig) {
		c.maxLevel = min(max(maxLevel, 2), 64)
	}
}

// WithSeed sets the seed of the tower heights (package heights): the hash
// of the key for NewSkipList, the generator for NewSkipListFunc. The
// default, heights.DefaultSeed, is fixed, so one key set gives one shape
// in every process; a process that takes keys from untrusted clients
// passes a private random seed instead.
func WithSeed(seed uint64) SkipListOption {
	return func(c *skipListConfig) { c.seed = seed }
}

// WithRetireHook attaches fn to every level's physical-deletion C&S site:
// fn is called with the tower (*SLNode) each time the C&S unlinking one of
// its levels succeeds, from the goroutine that won the C&S (so fn must be
// safe for concurrent use). A tower of height h arrives h times - once
// per level it was linked on, the same pointer every time - and usually
// level 1 FIRST (Delete unlinks the root to linearize, then sweeps levels
// >= 2), so a hook must not free the tower on its first arrival: the
// object is still linked on the levels above. This is the seam
// memory-reclamation schemes such as internal/ebr hang on; the built-in
// recycler (WithRecycling) counts the arrivals and retires the tower on
// the last.
func WithRetireHook(fn func(node any)) SkipListOption {
	return func(c *skipListConfig) { c.retire = fn }
}

// WithRecycling enables epoch-based node recycling: retired towers pass
// through internal/ebr's grace periods onto a free list that Insert
// consults before allocating, making steady-state insert-after-delete
// traffic allocation-free. See recycle.go for the safety argument.
func WithRecycling() SkipListOption {
	return func(c *skipListConfig) { c.recycle = true }
}

// NewSkipList returns an empty skip list over a naturally ordered key
// type. A tower's height is a seeded hash of its key, so the shape is a
// function of the key set alone, whatever the order of the updates.
func NewSkipList[K cmp.Ordered, V any](opts ...SkipListOption) *SkipList[K, V] {
	cfg := newSkipListConfig(opts)
	seed := cfg.seed
	l := new(SkipList[K, V])
	l.init(cmp.Compare[K], cfg, func(k K) uint64 { return heights.Key(seed, k) })
	return l
}

// NewSkipListFunc returns an empty skip list ordered by the given
// comparison function, which must define a strict total order consistent
// with ==: compare(a,b)==0 iff a == b. Its keys are only comparable, so
// tower heights come from a seeded generator: one seed and one sequence
// of inserts give one shape.
func NewSkipListFunc[K comparable, V any](compare func(K, K) int, opts ...SkipListOption) *SkipList[K, V] {
	cfg := newSkipListConfig(opts)
	src := heights.NewSource(cfg.seed)
	l := new(SkipList[K, V])
	l.init(compare, cfg, func(K) uint64 { return src.Next() })
	return l
}

// newSkipListConfig applies opts over the defaults.
func newSkipListConfig(opts []SkipListOption) skipListConfig {
	cfg := skipListConfig{maxLevel: DefaultMaxLevel, seed: heights.DefaultSeed}
	for _, opt := range opts {
		opt(&cfg)
	}
	return cfg
}

// init sets up an empty skip list in place: sentinel towers of
// cfg.maxLevel cells, every level linking head to tail, and towers drawing
// their height bits from bits.
func (l *SkipList[K, V]) init(compare func(K, K) int, cfg skipListConfig, bits func(K) uint64) {
	l.compare = compare
	l.maxLevel = cfg.maxLevel
	l.head = allocTower[K, V](cfg.maxLevel)
	l.tail = allocTower[K, V](cfg.maxLevel) // its successor words stay (nil, 0, 0)
	l.bits = bits
	l.retire = cfg.retire
	if cfg.recycle {
		l.rec = newRecycler(len(towerCaps))
	}
	l.head.kind, l.tail.kind = kindHead, kindTail
	for lv := 1; lv <= cfg.maxLevel; lv++ {
		l.head.cell(lv).succ.store(clean(l.tail))
	}
	l.size.Init()
}

// SetRetireHook attaches fn to every level's physical-deletion C&S site;
// see WithRetireHook for the contract and the retire order. The hook MUST
// be attached before the skip list is shared and never changed afterwards:
// l.retire is a plain field, written here without synchronization and
// read at every physical-deletion C&S — a store racing an operation is a
// data race, and deletions already past the nil check miss the hook.
// Attach-then-share is the contract; nil detaches (same condition).
func (l *SkipList[K, V]) SetRetireHook(fn func(node any)) { l.retire = fn }

// Len returns the number of keys stored. Exact in quiescent states.
func (l *SkipList[K, V]) Len() int { return int(l.size.Load()) }

// MaxLevel returns the configured head-tower height.
func (l *SkipList[K, V]) MaxLevel() int { return l.maxLevel }

// towerHeight returns the height of k's new tower: heights.Of of its
// bits, P(height >= j) = 4^-(j-1) capped at maxLevel-1 - the paper's coin
// flips at fan-out 4. A cap of 1 (a List) leaves nothing to draw.
func (l *SkipList[K, V]) towerHeight(k K) int {
	if l.maxLevel == 2 {
		return 1
	}
	return heights.Of(l.bits(k), l.maxLevel)
}

// SetHeights makes fn the height of every tower inserted from now on
// (capped at maxLevel-1), in place of the seeded one: a seam for tests
// and figures that rig a shape by hand. Like SetRetireHook it must be
// called before the skip list is shared.
func (l *SkipList[K, V]) SetHeights(fn func(K) int) {
	l.bits = func(k K) uint64 { return heights.Bits(fn(k)) }
}

// search is SEARCH_SL; Search in telemetry.go wraps it with the optional
// metrics flush.
func (l *SkipList[K, V]) search(p *Proc, k K) *SLNode[K, V] {
	curr, _ := l.searchToLevel(p, k, 1, false)
	return l.exact(curr, k)
}

// exact returns n when it carries k, or nil.
func (l *SkipList[K, V]) exact(n *SLNode[K, V], k K) *SLNode[K, V] {
	if l.cmpNode(n, k) == 0 {
		return n
	}
	return nil
}

// cmpNode orders node n against key k treating sentinels as -inf/+inf.
func (l *SkipList[K, V]) cmpNode(n *SLNode[K, V], k K) int {
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
func (l *SkipList[K, V]) nodeLeq(n *SLNode[K, V], k K, strict bool) bool {
	c := l.cmpNode(n, k)
	if strict {
		return c < 0
	}
	return c <= 0
}

// get looks up k and returns its value.
func (l *SkipList[K, V]) get(p *Proc, k K) (V, bool) {
	if n := l.search(p, k); n != nil {
		return n.val, true
	}
	var zero V
	return zero, false
}

// insert adds k with value v, linking the new tower bottom-up, with every
// level search resumed from r. It returns the tower and true on success,
// or the existing tower and false if k is already present. The insertion
// is linearized at the level-1 insertion C&S. This is INSERT_SL. The
// level-1 search leaves a bracket on every level it crosses, so each
// further level of the tower is inserted from its own level's bracket;
// backtrack recovers a predecessor marked since.
func (r *record[K, V]) insert(p *Proc, k K, v V) (*SLNode[K, V], bool) {
	l := r.l
	prev, next := r.searchToLevel(p, k, 1, false)
	if l.cmpNode(prev, k) == 0 {
		return prev, false // duplicate key
	}
	height := l.towerHeight(k)
	tower := l.newTower(p, k, v, height)
	lv := 1
	for {
		var inserted bool
		prev, inserted = l.insertNode(p, tower, prev, next, lv)
		if !inserted && lv == 1 {
			// A concurrent insertion won with the same key; tower was never
			// published and can go straight back to the free list.
			l.freeTower(tower)
			return prev, false
		}
		if tower.marked() {
			// Our tower became superfluous while we were building it: a
			// concurrent deletion removed the root. Undo the level we may
			// just have added and report success (the insertion
			// linearized at the level-1 C&S, before the deletion).
			if lv > 1 {
				if inserted {
					l.deleteNode(p, prev, tower, lv)
				} else {
					l.towerRetire(p, tower) // the reference taken for this level
				}
			}
			return tower, true
		}
		if !inserted {
			// Duplicate at an upper level: it can only belong to a
			// superfluous tower (or our root is marked, handled above).
			// Re-search - which removes superfluous nodes - and retry.
			prev, next = r.searchToLevel(p, k, lv, false)
			continue
		}
		lv++
		if lv > height {
			return tower, true // tower construction finished
		}
		if !l.towerAcquire(tower) {
			// The tower fully retired already (root deleted and every
			// level unlinked): stop building. The insertion linearized at
			// the level-1 C&S long before.
			return tower, true
		}
		prev, next = r.searchToLevel(p, k, lv, false)
	}
}

// remove deletes k. It deletes the tower on level 1 first (making the rest
// of it superfluous and linearizing the deletion when level 1 is marked),
// then, if the tower has levels >= 2, sweeps them from r's brackets to
// physically unlink it there. This is DELETE_SL.
func (r *record[K, V]) remove(p *Proc, k K) (*SLNode[K, V], bool) {
	l := r.l
	prev, delNode := r.searchToLevel(p, k, 1, true) // SearchToLevel_SL(k - eps, 1)
	if l.cmpNode(delNode, k) != 0 {
		return nil, false // no such key
	}
	if !l.deleteNode(p, prev, delNode, 1) {
		return nil, false // a concurrent deletion won
	}
	// Remove the superfluous nodes of the tower (top-down, as the
	// descending search encounters them). A tower of height 1 has none:
	// no level above the first was linked or ever will be.
	if delNode.height > 1 {
		r.sweep(p, k)
	}
	return delNode, true
}
