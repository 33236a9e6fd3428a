// Package seqskip implements W. Pugh's sequential skip list ("Skip Lists:
// A Probabilistic Alternative to Balanced Trees", CACM 1990). It is the
// reference model for differential testing of the concurrent
// implementations and the baseline for the tower-height-distribution
// experiment (E6). It is NOT safe for concurrent use.
package seqskip

import (
	"cmp"

	"repro/internal/heights"
)

// DefaultMaxLevel matches the concurrent implementations.
const DefaultMaxLevel = 32

// node is one tower in Pugh's representation: a single node with an array
// of forward pointers.
type node[K cmp.Ordered, V any] struct {
	key     K
	val     V
	forward []*node[K, V]
}

// SkipList is Pugh's sequential skip list.
type SkipList[K cmp.Ordered, V any] struct {
	maxLevel int
	level    int // highest level currently in use
	head     *node[K, V]
	seed     uint64 // of the tower heights (package heights)
	size     int
}

// New returns an empty sequential skip list whose tower heights are
// heights.Key(seed, key): with the concurrent skip lists' seed it builds
// their shape.
func New[K cmp.Ordered, V any](maxLevel int, seed uint64) *SkipList[K, V] {
	if maxLevel < 2 {
		maxLevel = DefaultMaxLevel
	}
	return &SkipList[K, V]{
		maxLevel: maxLevel,
		level:    1,
		head:     &node[K, V]{forward: make([]*node[K, V], maxLevel)},
		seed:     seed,
	}
}

// Len returns the number of keys.
func (l *SkipList[K, V]) Len() int { return l.size }

// findPreds fills update with the rightmost node at each level whose key
// is < k and returns the candidate node (first node with key >= k).
func (l *SkipList[K, V]) findPreds(k K, update []*node[K, V]) *node[K, V] {
	x := l.head
	for i := l.level - 1; i >= 0; i-- {
		for x.forward[i] != nil && cmp.Less(x.forward[i].key, k) {
			x = x.forward[i]
		}
		update[i] = x
	}
	return x.forward[0]
}

// Get looks up k.
func (l *SkipList[K, V]) Get(k K) (V, bool) {
	x := l.head
	for i := l.level - 1; i >= 0; i-- {
		for x.forward[i] != nil && cmp.Less(x.forward[i].key, k) {
			x = x.forward[i]
		}
	}
	x = x.forward[0]
	if x != nil && x.key == k {
		return x.val, true
	}
	var zero V
	return zero, false
}

// Contains reports whether k is present.
func (l *SkipList[K, V]) Contains(k K) bool {
	_, ok := l.Get(k)
	return ok
}

// Insert adds k with value v; false if already present.
func (l *SkipList[K, V]) Insert(k K, v V) bool {
	update := make([]*node[K, V], l.maxLevel)
	x := l.findPreds(k, update)
	if x != nil && x.key == k {
		return false
	}
	lvl := heights.Of(heights.Key(l.seed, k), l.maxLevel)
	if lvl > l.level {
		for i := l.level; i < lvl; i++ {
			update[i] = l.head
		}
		l.level = lvl
	}
	n := &node[K, V]{key: k, val: v, forward: make([]*node[K, V], lvl)}
	for i := 0; i < lvl; i++ {
		n.forward[i] = update[i].forward[i]
		update[i].forward[i] = n
	}
	l.size++
	return true
}

// Delete removes k; false if absent.
func (l *SkipList[K, V]) Delete(k K) bool {
	update := make([]*node[K, V], l.maxLevel)
	x := l.findPreds(k, update)
	if x == nil || x.key != k {
		return false
	}
	for i := 0; i < len(x.forward); i++ {
		if update[i].forward[i] == x {
			update[i].forward[i] = x.forward[i]
		}
	}
	for l.level > 1 && l.head.forward[l.level-1] == nil {
		l.level--
	}
	l.size--
	return true
}

// Ascend iterates keys in ascending order.
func (l *SkipList[K, V]) Ascend(fn func(k K, v V) bool) {
	for x := l.head.forward[0]; x != nil; x = x.forward[0] {
		if !fn(x.key, x.val) {
			return
		}
	}
}

// Heights returns the histogram of tower heights: Heights()[h] is the
// number of towers of height h+1. Used by E6 as the sequential reference
// distribution.
func (l *SkipList[K, V]) Heights() []int {
	hist := make([]int, l.maxLevel)
	for x := l.head.forward[0]; x != nil; x = x.forward[0] {
		hist[len(x.forward)-1]++
	}
	return hist
}

// SearchSteps counts the comparisons a search for k performs; the E5
// experiment uses it to verify O(log n) scaling.
func (l *SkipList[K, V]) SearchSteps(k K) int {
	steps := 0
	x := l.head
	for i := l.level - 1; i >= 0; i-- {
		for x.forward[i] != nil && cmp.Less(x.forward[i].key, k) {
			x = x.forward[i]
			steps++
		}
		steps++
	}
	return steps
}
