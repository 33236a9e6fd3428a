package lockfree

// NewListFunc returns a list dictionary over any comparable key type,
// ordered by the given comparison function. compare must define a strict
// total order consistent with ==: compare(a, b) == 0 iff a == b. Use this
// for struct keys, reversed orders, or collations; NewList covers the
// naturally ordered types. The options apply as they do to NewList.
func NewListFunc[K comparable, V any](compare func(K, K) int, opts ...Option) *ListFunc[K, V] {
	return &ListFunc[K, V]{newBody[K, V](compare, opts)}
}

// ListFunc is a List over a caller-supplied key ordering. It has every
// method of List.
type ListFunc[K comparable, V any] struct {
	body[K, V]
}

// NewSkipListFunc returns a skip-list dictionary over any comparable key
// type, ordered by the given comparison function (see NewListFunc for the
// contract). The options apply as they do to NewSkipList. The
// PriorityQueue in this package is built on the same skip list.
func NewSkipListFunc[K comparable, V any](compare func(K, K) int, opts ...Option) *SkipListFunc[K, V] {
	return &SkipListFunc[K, V]{newSkipBody(skipListFunc[K, V](compare), opts)}
}

// SkipListFunc is a SkipList over a caller-supplied key ordering. It has
// every method of SkipList.
type SkipListFunc[K comparable, V any] struct {
	skipBody[K, V]
}
