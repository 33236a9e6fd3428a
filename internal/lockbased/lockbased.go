// Package lockbased provides mutual-exclusion baselines: a sorted linked
// list and a skip list, each guarded by a single RWMutex. They are the
// strawman the paper's introduction argues against - a delay of the lock
// holder stalls every other process - and serve as the throughput
// baselines in experiment E4.
package lockbased

import (
	"cmp"
	"sync"

	"repro/internal/seqskip"
)

// listNode is a cell of the sequential sorted list.
type listNode[K cmp.Ordered, V any] struct {
	key  K
	val  V
	next *listNode[K, V]
}

// List is a coarse-grained locked sorted linked list.
type List[K cmp.Ordered, V any] struct {
	mu   sync.RWMutex
	head *listNode[K, V] // sentinel
	size int
}

// NewList returns an empty locked list.
func NewList[K cmp.Ordered, V any]() *List[K, V] {
	return &List[K, V]{head: &listNode[K, V]{}}
}

// Len returns the number of keys.
func (l *List[K, V]) Len() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.size
}

// findPred returns the rightmost node with key < k (the sentinel if none).
// Caller must hold the lock.
func (l *List[K, V]) findPred(k K) *listNode[K, V] {
	p := l.head
	for p.next != nil && cmp.Less(p.next.key, k) {
		p = p.next
	}
	return p
}

// Get looks up k.
func (l *List[K, V]) Get(k K) (V, bool) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	p := l.findPred(k).next
	if p != nil && p.key == k {
		return p.val, true
	}
	var zero V
	return zero, false
}

// Contains reports whether k is present.
func (l *List[K, V]) Contains(k K) bool {
	_, ok := l.Get(k)
	return ok
}

// Insert adds k with value v; false if already present.
func (l *List[K, V]) Insert(k K, v V) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	pred := l.findPred(k)
	if pred.next != nil && pred.next.key == k {
		return false
	}
	pred.next = &listNode[K, V]{key: k, val: v, next: pred.next}
	l.size++
	return true
}

// Delete removes k; false if absent.
func (l *List[K, V]) Delete(k K) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	pred := l.findPred(k)
	if pred.next == nil || pred.next.key != k {
		return false
	}
	pred.next = pred.next.next
	l.size--
	return true
}

// Ascend iterates keys in ascending order under the read lock. fn must not
// call back into the list.
func (l *List[K, V]) Ascend(fn func(k K, v V) bool) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	for p := l.head.next; p != nil; p = p.next {
		if !fn(p.key, p.val) {
			return
		}
	}
}

// SkipList is a coarse-grained locked skip list: Pugh's sequential skip
// list behind a single RWMutex.
type SkipList[K cmp.Ordered, V any] struct {
	mu sync.RWMutex
	sl *seqskip.SkipList[K, V]
}

// NewSkipList returns an empty locked skip list whose tower heights are
// heights.Key(seed, key), as in seqskip.New.
func NewSkipList[K cmp.Ordered, V any](maxLevel int, seed uint64) *SkipList[K, V] {
	return &SkipList[K, V]{sl: seqskip.New[K, V](maxLevel, seed)}
}

// Len returns the number of keys.
func (l *SkipList[K, V]) Len() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.sl.Len()
}

// Get looks up k.
func (l *SkipList[K, V]) Get(k K) (V, bool) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.sl.Get(k)
}

// Contains reports whether k is present.
func (l *SkipList[K, V]) Contains(k K) bool {
	_, ok := l.Get(k)
	return ok
}

// Insert adds k with value v; false if already present.
func (l *SkipList[K, V]) Insert(k K, v V) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sl.Insert(k, v)
}

// Delete removes k; false if absent.
func (l *SkipList[K, V]) Delete(k K) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sl.Delete(k)
}

// Ascend iterates keys in ascending order under the read lock. fn must not
// call back into the skip list.
func (l *SkipList[K, V]) Ascend(fn func(k K, v V) bool) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	l.sl.Ascend(fn)
}

// Locked runs fn while holding the write lock, modelling a process that
// stalls in the middle of an update (preempted, paging, crashed). It
// exists for the delay-robustness experiment (E8): with a mutual-exclusion
// implementation, such a stall blocks every other operation, which is
// precisely the failure mode the paper's lock-free design eliminates.
func (l *SkipList[K, V]) Locked(fn func()) {
	l.mu.Lock()
	defer l.mu.Unlock()
	fn()
}
