package core

import "cmp"

// List is the lock-free sorted linked list of Fomitchev and Ruppert
// (Section 3). It implements a dictionary keyed by K with no duplicate
// keys. All methods are safe for concurrent use by any number of
// goroutines and the implementation is lock-free: a delayed or stopped
// goroutine never prevents others from completing operations.
//
// The paper builds its skip list from levels that are instances of this
// list; here the list is that level. A List is a SkipList whose interior
// towers have height 1 - a head and a tail tower of two levels, the upper
// one always empty - so every operation runs the level routines of
// skipinternal.go and skipsearch.go on level 1, where they are the
// paper's Figures 3-5, and the batches, fingers, recycling and telemetry
// are the skip list's. The nodes it hands out are those towers (*SLNode).
//
// The zero value is not usable; construct with NewList.
type List[K comparable, V any] struct {
	SkipList[K, V]
}

// NewList returns an empty list over a naturally ordered key type.
func NewList[K cmp.Ordered, V any]() *List[K, V] {
	return NewListFunc[K, V](cmp.Compare[K])
}

// NewListFunc returns an empty list ordered by the given comparison
// function, which must define a strict total order (return <0, 0, >0 for
// a<b, a==b, a>b) and be consistent with ==: compare(a,b)==0 iff a == b.
func NewListFunc[K comparable, V any](compare func(K, K) int) *List[K, V] {
	l := new(List[K, V])
	l.init(compare, skipListConfig{maxLevel: 2}, nil) // every tower is one level high
	return l
}

// CheckInvariants validates the paper's invariants INV 1-5 (Section 3.3)
// in a quiescent state; see SkipList.CheckStructure.
func (l *List[K, V]) CheckInvariants() error { return l.CheckStructure() }

// Snapshot walks the physical chain from head to tail - including
// logically deleted nodes still linked - and reports each node's state.
func (l *List[K, V]) Snapshot() []NodeState[K] { return l.LevelSnapshot(1) }

// EnableRecycling switches the list to epoch-based node recycling (see
// WithRecycling). Must be called before the list is shared.
func (l *List[K, V]) EnableRecycling() { l.rec = newRecycler(1) }
