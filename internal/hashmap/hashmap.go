// Package hashmap implements a lock-free hash map built from the paper's
// linked lists, in the style of Michael's list-based hash tables ("High
// Performance Dynamic Lock-Free Hash Tables and List-Based Sets", SPAA
// 2002), which the paper discusses in Section 2. It demonstrates the
// introduction's claim that lock-free linked lists "act as building blocks
// for many other data structures": each bucket is one Fomitchev-Ruppert
// list, so every bucket operation carries the O(n_bucket + c) amortized
// bound, and with a sane load factor that is O(1 + c) expected.
//
// The table does not resize; choose the bucket count for the expected
// population. An empty bucket costs 560 bytes in five allocations on
// amd64 - the list's header and its head/tail sentinel towers (a list is
// the skip list with one-level towers; it cost 512 bytes while it had a
// node type of its own).
package hashmap

import (
	"cmp"
	"sync/atomic"

	"repro/internal/core"
)

// Map is a fixed-capacity lock-free hash map. All methods are safe for
// concurrent use; the implementation is lock-free.
type Map[K cmp.Ordered, V any] struct {
	buckets []*core.List[K, V]
	hash    func(K) uint64
	mask    uint64
	size    atomic.Int64
}

// New returns a map with the given number of buckets (rounded up to a
// power of two, minimum 1) and hash function. For integer and string keys
// the package provides IntHash and StringHash.
func New[K cmp.Ordered, V any](buckets int, hash func(K) uint64) *Map[K, V] {
	n := 1
	for n < buckets {
		n <<= 1
	}
	m := &Map[K, V]{
		buckets: make([]*core.List[K, V], n),
		hash:    hash,
		mask:    uint64(n - 1),
	}
	for i := range m.buckets {
		m.buckets[i] = core.NewList[K, V]()
	}
	return m
}

func (m *Map[K, V]) bucket(k K) *core.List[K, V] {
	return m.buckets[m.hash(k)&m.mask]
}

// Insert adds k with value v; false if k is already present.
func (m *Map[K, V]) Insert(k K, v V) bool {
	_, ok := m.bucket(k).Insert(nil, k, v)
	if ok {
		m.size.Add(1)
	}
	return ok
}

// Get returns the value stored at k.
func (m *Map[K, V]) Get(k K) (V, bool) {
	return m.bucket(k).Get(nil, k)
}

// Contains reports whether k is present.
func (m *Map[K, V]) Contains(k K) bool {
	_, ok := m.Get(k)
	return ok
}

// Delete removes k; false if absent (or a concurrent Delete won).
func (m *Map[K, V]) Delete(k K) bool {
	_, ok := m.bucket(k).Delete(nil, k)
	if ok {
		m.size.Add(-1)
	}
	return ok
}

// Len returns the number of keys (exact when quiescent).
func (m *Map[K, V]) Len() int { return int(m.size.Load()) }

// Buckets returns the bucket count.
func (m *Map[K, V]) Buckets() int { return len(m.buckets) }

// Range calls fn for every key/value until fn returns false. Iteration
// order is by bucket, then by key within a bucket; it is weakly consistent
// under concurrent updates.
func (m *Map[K, V]) Range(fn func(k K, v V) bool) {
	for _, b := range m.buckets {
		stop := false
		b.Ascend(func(k K, v V) bool {
			if !fn(k, v) {
				stop = true
				return false
			}
			return true
		})
		if stop {
			return
		}
	}
}

// CheckInvariants validates every bucket's list invariants (quiescent
// states only) and the size counter.
func (m *Map[K, V]) CheckInvariants() error {
	total := 0
	for _, b := range m.buckets {
		if err := b.CheckInvariants(); err != nil {
			return err
		}
		total += b.Len()
	}
	if total != m.Len() {
		return errSize{want: total, got: m.Len()}
	}
	return nil
}

type errSize struct{ want, got int }

func (e errSize) Error() string {
	return "hashmap size counter out of sync with buckets"
}

// IntHash mixes an integer key (splitmix64 finalizer); suitable for any
// integer-kind K.
func IntHash[K ~int | ~int32 | ~int64 | ~uint | ~uint32 | ~uint64](k K) uint64 {
	x := uint64(k)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// StringHash is FNV-1a over the key's bytes.
func StringHash[K ~string](k K) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(k); i++ {
		h ^= uint64(k[i])
		h *= prime
	}
	return h
}
