package lockfree

import (
	"slices"
	"testing"

	"repro/internal/core"
)

// TestWithSeedReachesTheTowers: WithSeed is the core skip list's seed, on
// every constructor that builds one. The keyed structures give the shape
// core.NewSkipList gives the same seed; a Func structure's generator
// gives one shape per seed and insertion order; another seed gives
// another shape.
func TestWithSeedReachesTheTowers(t *testing.T) {
	const n = 4096
	fill := func(insert func(k, v int) bool) {
		for k := 0; k < n; k++ {
			insert(k, k)
		}
	}
	skip := func(opts ...Option) []int {
		s := NewSkipList[int, int](opts...)
		fill(s.Insert)
		return s.l.Heights()
	}
	sharded := func(opts ...Option) []int {
		s := NewShardedSkipList[int, int](nil, opts...)
		fill(s.Insert)
		return s.m.Shard(0).Heights()
	}
	funcs := func(opts ...Option) []int {
		s := NewSkipListFunc[int, int](func(a, b int) int { return b - a }, opts...)
		fill(s.Insert)
		return s.l.Heights()
	}
	want := core.NewSkipList[int, int](core.WithSeed(7))
	for k := 0; k < n; k++ {
		want.Insert(nil, k, k)
	}
	for name, build := range map[string]func(...Option) []int{"SkipList": skip, "ShardedSkipList": sharded, "SkipListFunc": funcs} {
		seven := build(WithSeed(7))
		if name != "SkipListFunc" && !slices.Equal(seven, want.Heights()) {
			t.Errorf("%s: WithSeed(7) heights %v, core.WithSeed(7) gives %v", name, seven, want.Heights())
		}
		if again := build(WithSeed(7)); !slices.Equal(again, seven) {
			t.Errorf("%s: one seed, two shapes: %v and %v", name, seven, again)
		}
		if other := build(WithSeed(8)); slices.Equal(other, seven) {
			t.Errorf("%s: seeds 7 and 8 give the same heights %v: the seed does not reach the towers", name, seven)
		}
	}
}
