package adversary

import (
	"math/bits"

	"repro/internal/core"
	"repro/internal/sharded"
)

// rigged returns an empty skip list whose towers get height(k) levels in
// place of the seeded hash of k: a shape fixed by hand, whatever the
// order of the inserts.
func rigged(height func(int) int, opts ...core.SkipListOption) *core.SkipList[int, int] {
	l := core.NewSkipList[int, int](opts...)
	l.SetHeights(height)
	return l
}

// riggedMap is rigged for every shard of a sharded map.
func riggedMap(splitters []int, height func(int) int) *sharded.Map[int, int] {
	m := sharded.New[int, int](splitters)
	for i := 0; i < m.Shards(); i++ {
		m.Shard(i).SetHeights(height)
	}
	return m
}

// allHeight is the height function that gives every tower h levels.
func allHeight(h int) func(int) int { return func(int) int { return h } }

// perfect is the perfect skip list's height function: key k has
// 1 + trailing-zeros(k) levels.
func perfect(k int) int { return 1 + bits.TrailingZeros(uint(k)) }
