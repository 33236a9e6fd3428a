package core

import (
	"cmp"
	"math/bits"
	"math/rand/v2"
	"sync"

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
// a tower of nodes built bottom-up on insertion and torn down root-first,
// then top-down, on deletion. Searches physically delete any superfluous
// tower nodes they encounter so that backlink chains on a level cannot be
// traversed repeatedly.
//
// All methods are safe for concurrent use and the implementation is
// lock-free. Construct with NewSkipList.
type SkipList[K comparable, V any] struct {
	// The fields above the pad are written once at construction and
	// read-only afterwards: they share cache lines safely.
	compare  func(K, K) int
	maxLevel int
	heads    []*SLNode[K, V] // head tower, index 0 = level 1
	tails    []*SLNode[K, V] // tail tower, index 0 = level 1
	rng      func() uint64   // thread-safe source of random bits
	// tel, when non-nil, receives one RecordOp flush per completed
	// operation (see telemetry.go). Set before the skip list is shared.
	tel *telemetry.Recorder
	// retire, when non-nil, is called with each level node whose physical-
	// deletion C&S succeeded - exactly once per node, from whichever
	// goroutine won the C&S. Set before the skip list is shared.
	retire func(node any)
	// rec, when non-nil, recycles retired towers through epoch-based
	// reclamation (recycle.go). Set by WithRecycling at construction.
	rec *recycler

	// _ keeps the read-mostly header above off mutable lines; size stripes
	// its writes across padded per-P shards (see List.size).
	_    [cacheLinePad]byte
	size instrument.ShardedInt64
	// fpool recycles the fingers threading batch operations (batch.go).
	fpool sync.Pool
}

// SkipListOption configures a SkipList.
type SkipListOption func(*skipListConfig)

type skipListConfig struct {
	maxLevel int
	rng      func() uint64
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

// WithRandomSource supplies the source of random bits used for tower-height
// coin flips. The function must be safe for concurrent use. Intended for
// deterministic tests and the height-distribution experiment (E6).
func WithRandomSource(rng func() uint64) SkipListOption {
	return func(c *skipListConfig) { c.rng = rng }
}

// WithRetireHook attaches fn to every level's physical-deletion C&S site:
// fn is called with each level node (*SLNode) whose unlinking C&S
// succeeds, exactly once per node, from the goroutine that won the C&S
// (so fn must be safe for concurrent use). Note the retire ORDER: a
// tower's root is usually retired FIRST (Delete unlinks the level-1 node
// to linearize, then sweeps levels >= 2), so upper nodes arrive at the
// hook after their root while still holding down/towerRoot edges to it —
// a hook must not free a root eagerly on the assumption that its tower
// is already gone. This is the seam memory-reclamation schemes such as
// internal/ebr hang on; the built-in recycler (WithRecycling) handles
// the ordering by retiring whole towers atomically.
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
// type.
func NewSkipList[K cmp.Ordered, V any](opts ...SkipListOption) *SkipList[K, V] {
	return NewSkipListFunc[K, V](cmp.Compare[K], opts...)
}

// NewSkipListFunc returns an empty skip list ordered by the given
// comparison function, which must define a strict total order consistent
// with ==: compare(a,b)==0 iff a == b.
func NewSkipListFunc[K comparable, V any](compare func(K, K) int, opts ...SkipListOption) *SkipList[K, V] {
	cfg := skipListConfig{maxLevel: DefaultMaxLevel, rng: rand.Uint64}
	for _, opt := range opts {
		opt(&cfg)
	}
	l := &SkipList[K, V]{
		compare:  compare,
		maxLevel: cfg.maxLevel,
		heads:    make([]*SLNode[K, V], cfg.maxLevel),
		tails:    make([]*SLNode[K, V], cfg.maxLevel),
		rng:      cfg.rng,
		retire:   cfg.retire,
	}
	if cfg.recycle {
		l.rec = newRecycler()
	}
	for i := 0; i < cfg.maxLevel; i++ {
		h := &SLNode[K, V]{kind: kindHead}
		t := &SLNode[K, V]{kind: kindTail} // its successor word stays (nil, 0, 0)
		l.heads[i], l.tails[i] = h, t
		h.towerRoot, t.towerRoot = l.heads[0], l.tails[0]
		h.succ.store(clean(t))
		if i > 0 {
			h.down, t.down = l.heads[i-1], l.tails[i-1]
		}
	}
	l.size.Init()
	return l
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

// HeadAt returns the head sentinel of the given level (1-based); used by
// the structure validator and statistics collectors.
func (l *SkipList[K, V]) HeadAt(level int) *SLNode[K, V] { return l.heads[level-1] }

// TailAt returns the tail sentinel of the given level (1-based).
func (l *SkipList[K, V]) TailAt(level int) *SLNode[K, V] { return l.tails[level-1] }

// randomHeight draws a tower height from the geometric(1/2) distribution,
// capped at maxLevel-1: height h is chosen with probability 2^-h (mass of
// the cap absorbs the tail), exactly the paper's repeated coin flips.
func (l *SkipList[K, V]) randomHeight() int {
	r := l.rng()
	h := 1 + bits.TrailingZeros64(^r) // count leading "heads" flips
	return min(h, l.maxLevel-1)
}

// slSearcher abstracts "locate (n1, n2) on level v": the skip list itself
// searches from the top of the head tower, a SkipFinger (finger.go) from
// its remembered predecessor towers. insert/remove/get are written against
// this seam so the finger paths reuse the full operation bodies. Both
// implementations are pointer types, so converting to the interface does
// not allocate.
type slSearcher[K comparable, V any] interface {
	searchToLevel(p *Proc, k K, v int, strict bool) (*SLNode[K, V], *SLNode[K, V])
	// sweep physically removes the superfluous remainder of k's deleted
	// tower. It must traverse every nonempty level >= 2, approaching k
	// from a strict predecessor on each, so that searchRight encounters
	// the tower's node as a successor and completes its deletion - a
	// start that lands on (or beyond) the node would strand it.
	sweep(p *Proc, k K)
}

// sweep removes the superfluous tower of the deleted key k by descending
// from the top of the structure, exactly the plain Delete's cleanup pass.
func (l *SkipList[K, V]) sweep(p *Proc, k K) {
	l.searchToLevel(p, k, 2, false)
}

// search is SEARCH_SL; Search in telemetry.go wraps it with the optional
// metrics flush.
func (l *SkipList[K, V]) search(p *Proc, k K) *SLNode[K, V] {
	return l.searchVia(p, l, k)
}

// searchVia is search with the level searches routed through s.
func (l *SkipList[K, V]) searchVia(p *Proc, s slSearcher[K, V], k K) *SLNode[K, V] {
	curr, _ := s.searchToLevel(p, k, 1, false)
	if l.cmpNode(curr, k) == 0 {
		return curr
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

// insert adds k with value v, building the new tower bottom-up. It returns
// the root node and true on success, or the existing root and false if k
// is already present. The insertion is linearized at the root node's
// insertion C&S. This is INSERT_SL.
func (l *SkipList[K, V]) insert(p *Proc, k K, v V) (*SLNode[K, V], bool) {
	return l.insertVia(p, l, k, v)
}

// insertVia is insert with every level search routed through s (the skip
// list itself, or a finger).
func (l *SkipList[K, V]) insertVia(p *Proc, s slSearcher[K, V], k K, v V) (*SLNode[K, V], bool) {
	prev, next := s.searchToLevel(p, k, 1, false)
	if l.cmpNode(prev, k) == 0 {
		return prev, false // duplicate key
	}
	root := l.newRoot(p, k, v)
	height := l.randomHeight()
	newNode := root
	lv := 1
	for {
		var inserted bool
		prev, inserted = l.insertNode(p, newNode, prev, next)
		if !inserted && lv == 1 {
			// A concurrent insertion won with the same key; root was never
			// published and can go straight back to the free list.
			if l.rec != nil {
				l.rec.pool.Put(root)
			}
			return prev, false
		}
		if root.marked() {
			// Our tower became superfluous while we were building it: a
			// concurrent deletion removed the root. Undo the node we may
			// just have added and report success (the insertion
			// linearized at the root C&S, before the deletion).
			if newNode != root {
				if inserted {
					l.deleteNode(p, prev, newNode)
				} else if l.rec != nil {
					// Never published: release its tower reference and
					// recycle it directly.
					l.towerAbandon(p, newNode)
				}
			}
			return root, true
		}
		if !inserted {
			// Duplicate at an upper level: it can only belong to a
			// superfluous tower (or our root is marked, handled above).
			// Re-search - which removes superfluous nodes - and retry.
			prev, next = s.searchToLevel(p, k, lv, false)
			continue
		}
		lv++
		if lv > height {
			return root, true // tower construction finished
		}
		if !l.towerAcquire(root) {
			// The tower fully retired already (root deleted and every
			// node unlinked): stop building. The insertion linearized at
			// the root C&S long before.
			return root, true
		}
		newNode = l.newUpper(p, k, newNode, root)
		prev, next = s.searchToLevel(p, k, lv, false)
	}
}

// remove deletes k. It deletes the root node first (making the remaining
// tower superfluous and linearizing the deletion when the root is marked),
// then sweeps levels >= 2 to physically remove the rest of the tower.
// This is DELETE_SL.
func (l *SkipList[K, V]) remove(p *Proc, k K) (*SLNode[K, V], bool) {
	return l.removeVia(p, l, k)
}

// removeVia is remove with every level search routed through s.
func (l *SkipList[K, V]) removeVia(p *Proc, s slSearcher[K, V], k K) (*SLNode[K, V], bool) {
	prev, delNode := s.searchToLevel(p, k, 1, true) // SearchToLevel_SL(k - eps, 1)
	if l.cmpNode(delNode, k) != 0 {
		return nil, false // no such key
	}
	if !l.deleteNode(p, prev, delNode) {
		return nil, false // a concurrent deletion won
	}
	// Remove the superfluous nodes of the tower (top-down, as the
	// descending search encounters them).
	s.sweep(p, k)
	return delNode, true
}
