// Package lockfree is the public API of this repository: lock-free sorted
// linked lists and skip lists implementing the algorithms of Mikhail
// Fomitchev and Eric Ruppert, "Lock-Free Linked Lists and Skip Lists"
// (PODC 2004).
//
// Both structures are linearizable dictionaries over ordered keys. They
// are safe for concurrent use by any number of goroutines without locks:
// a goroutine that is delayed - or never scheduled again - cannot prevent
// others from completing operations. The linked list additionally carries
// the paper's headline guarantee: the amortized cost of an operation is
// O(n + c), linear in the list length plus the operation's point
// contention, because operations recover from interference through
// backlinks instead of restarting.
//
// Choose List for small dictionaries or when the O(n + c) amortized bound
// matters; choose SkipList for large dictionaries, where operations take
// expected O(log n) time. ListFunc and SkipListFunc are the two over a
// caller-supplied key ordering: each carries its ordered twin's methods,
// and every Option applies to it as it does to the twin.
//
//	m := lockfree.NewSkipList[string, int]()
//	m.Insert("a", 1)
//	v, ok := m.Get("a")
//	m.Delete("a")
package lockfree

import (
	"cmp"

	"repro/internal/core"
	"repro/lockfree/telemetry"
)

// Map is the dictionary interface implemented by both List and SkipList.
// Keys are unique; Insert never overwrites.
type Map[K cmp.Ordered, V any] interface {
	// Insert adds key with value; it returns false (without modifying
	// anything) if key is already present.
	Insert(key K, value V) bool
	// Get returns the value stored at key.
	Get(key K) (V, bool)
	// Contains reports whether key is present.
	Contains(key K) bool
	// Delete removes key; it returns false if key was absent or a
	// concurrent Delete of the same key won the race.
	Delete(key K) bool
	// Len returns the number of keys. The value is exact whenever no
	// operations are in flight, and within the number of in-flight
	// operations otherwise.
	Len() int
	// Ascend calls fn on each key/value in ascending key order until fn
	// returns false. Iteration is weakly consistent: it reflects some
	// interleaving of concurrent updates, never a torn state.
	Ascend(fn func(key K, value V) bool)
}

// List is a lock-free sorted linked list dictionary. Operations take time
// linear in the list length; the amortized cost under contention is
// O(n + c) (paper, Section 3.4). As in the paper, where every level of the
// skip list is an instance of this list, the two share one implementation:
// a List is a SkipList whose towers are one level high. Create with
// NewList.
type List[K cmp.Ordered, V any] struct {
	body[K, V]
}

var _ Map[int, any] = (*List[int, any])(nil)

// NewList returns an empty list dictionary. The options that apply are
// WithTelemetry, WithRetireHook, and WithRecycling.
func NewList[K cmp.Ordered, V any](opts ...Option) *List[K, V] {
	return &List[K, V]{newBody[K, V](cmp.Compare[K], opts)}
}

// SkipList is a lock-free skip list dictionary with expected O(log n)
// operations. Create with NewSkipList.
type SkipList[K cmp.Ordered, V any] struct {
	skipBody[K, V]
}

var _ Map[int, any] = (*SkipList[int, any])(nil)

// NewSkipList returns an empty skip-list dictionary.
func NewSkipList[K cmp.Ordered, V any](opts ...Option) *SkipList[K, V] {
	return &SkipList[K, V]{newSkipBody[K, V](cmp.Compare[K], opts)}
}

// body holds the operations of one core skip list - a list's is the one
// whose towers are one level high - for List, ListFunc and, through
// skipBody, SkipList and SkipListFunc.
type body[K comparable, V any] struct {
	l *core.SkipList[K, V]
}

// newBody returns the body of a List or ListFunc ordered by compare.
// WithMaxLevel and WithRandomSource shape towers a list does not have.
func newBody[K comparable, V any](compare func(K, K) int, opts []Option) body[K, V] {
	cfg := applyConfig(opts)
	l := core.NewListFunc[K, V](compare)
	l.SetRetireHook(cfg.retire)
	if cfg.recycle {
		l.EnableRecycling()
	}
	if cfg.tel != nil {
		l.SetTelemetry(cfg.tel.Recorder())
	}
	return body[K, V]{&l.SkipList}
}

// Insert adds key with value; false if key is already present.
func (s *body[K, V]) Insert(key K, value V) bool {
	_, ok := s.l.Insert(nil, key, value)
	return ok
}

// Get returns the value stored at key.
func (s *body[K, V]) Get(key K) (V, bool) { return s.l.Get(nil, key) }

// Contains reports whether key is present.
func (s *body[K, V]) Contains(key K) bool {
	_, ok := s.l.Get(nil, key)
	return ok
}

// Delete removes key; false if absent (or a concurrent Delete won).
func (s *body[K, V]) Delete(key K) bool {
	_, ok := s.l.Delete(nil, key)
	return ok
}

// Len returns the number of keys.
func (s *body[K, V]) Len() int { return s.l.Len() }

// Ascend iterates keys in ascending order of the key ordering.
func (s *body[K, V]) Ascend(fn func(key K, value V) bool) { s.l.Ascend(fn) }

// skipBody is body plus the methods only the skip lists carry.
type skipBody[K comparable, V any] struct {
	body[K, V]
}

// newSkipBody returns the body of a SkipList, SkipListFunc or
// PriorityQueue ordered by compare.
func newSkipBody[K comparable, V any](compare func(K, K) int, opts []Option) skipBody[K, V] {
	cfg := applyConfig(opts)
	l := core.NewSkipListFunc[K, V](compare, cfg.coreSkipListOpts()...)
	if cfg.tel != nil {
		l.SetTelemetry(cfg.tel.Recorder())
	}
	return skipBody[K, V]{body[K, V]{l}}
}

// AscendRange iterates keys in [from, to) in ascending order. Iteration is
// weakly consistent under concurrent updates.
func (s *skipBody[K, V]) AscendRange(from, to K, fn func(key K, value V) bool) {
	s.l.AscendRange(nil, from, to, fn)
}

// Min returns the smallest key and its value; ok is false when empty.
func (s *skipBody[K, V]) Min() (key K, value V, ok bool) {
	s.l.Ascend(func(k K, v V) bool {
		key, value, ok = k, v, true
		return false
	})
	return key, value, ok
}

// DeleteMin removes and returns the smallest key, retrying if a concurrent
// operation takes it first; ok is false when the skip list is empty. It
// turns the skip list into a concurrent priority queue (the Lotan-Shavit
// use case from the paper's Section 2).
func (s *skipBody[K, V]) DeleteMin() (key K, value V, ok bool) {
	for {
		if key, value, ok = s.Min(); !ok || s.Delete(key) {
			return key, value, ok
		}
		// Someone else deleted key first; retry with the new minimum.
	}
}

// Option configures a List, SkipList, or PriorityQueue at construction.
// WithMaxLevel and WithRandomSource apply to the skip-list-based
// structures only; WithTelemetry applies to all.
type Option func(*config)

type config struct {
	maxLevel int
	rng      func() uint64
	tel      *telemetry.Telemetry
	retire   func(node any)
	recycle  bool
}

// coreSkipListOpts translates the config for the core skip-list
// constructors.
func (c *config) coreSkipListOpts() []core.SkipListOption {
	var opts []core.SkipListOption
	if c.maxLevel != 0 {
		opts = append(opts, core.WithMaxLevel(c.maxLevel))
	}
	if c.rng != nil {
		opts = append(opts, core.WithRandomSource(c.rng))
	}
	if c.retire != nil {
		opts = append(opts, core.WithRetireHook(c.retire))
	}
	if c.recycle {
		opts = append(opts, core.WithRecycling())
	}
	return opts
}

// applyConfig collects the options and returns the resolved config.
func applyConfig(opts []Option) config {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// WithMaxLevel caps tower heights at maxLevel-1 (head towers use
// maxLevel). The default, 32, is ample for any in-memory dictionary;
// lower it only to bound memory for small fixed-size sets. Values are
// clamped to [2, 64].
func WithMaxLevel(maxLevel int) Option {
	return func(c *config) { c.maxLevel = maxLevel }
}

// WithRandomSource replaces the source of random bits used for tower
// heights, e.g. for deterministic tests. The function must be safe for
// concurrent use.
func WithRandomSource(rng func() uint64) Option {
	return func(c *config) { c.rng = rng }
}

// WithTelemetry attaches live metrics to the structure: every operation
// flushes its essential-step counts (the paper's Section 3.4 accounting)
// plus one latency and one retry sample into t's sharded counters. Read
// them with t.Snapshot()/t.Delta(), the Prometheus handler, or expvar; see
// package repro/lockfree/telemetry. Attaching the same Telemetry to
// several structures sums their metrics. Without this option the structure
// records nothing and pays one nil-check branch per operation.
func WithTelemetry(t *telemetry.Telemetry) Option {
	return func(c *config) { c.tel = t }
}

// WithRecycling enables epoch-based node recycling (internal/ebr): nodes
// unlinked by Delete pass through epoch-stamped retire lists and, once no
// concurrent operation can still hold them, onto per-P free lists that
// Insert consults before allocating. Steady-state insert-after-delete
// traffic then allocates nothing — towers included — trading a pin/unpin
// pair (two striped atomic adds) per operation for the GC pressure of
// the write path. Amortize even that with PinProc around batches.
func WithRecycling() Option {
	return func(c *config) { c.recycle = true }
}
