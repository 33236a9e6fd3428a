package sharded

import (
	"math/rand/v2"
	"strconv"
	"testing"

	"repro/internal/core"
)

// evenSplitters partitions [0, keyRange) evenly across s shards.
func evenSplitters(keyRange, s int) []int {
	out := make([]int, 0, s-1)
	for i := 1; i < s; i++ {
		out = append(out, keyRange*i/s)
	}
	return out
}

func benchMap(b *testing.B, keyRange, shards int) *Map[int, int] {
	b.Helper()
	m := New[int, int](evenSplitters(keyRange, shards))
	for k := 0; k < keyRange; k += 2 {
		m.Insert(nil, k, k)
	}
	b.ResetTimer()
	return m
}

// BenchmarkShardedGet measures one routed point lookup: a splitter binary
// search plus the per-shard descent, which is one or two levels shallower
// than a single skip list over the same keys.
func BenchmarkShardedGet(b *testing.B) {
	const keyRange = 8192
	for _, s := range []int{1, 4, 8} {
		b.Run(strconv.Itoa(s), func(b *testing.B) {
			m := benchMap(b, keyRange, s)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m.Get(nil, (i*7919)%keyRange)
			}
		})
	}
}

// BenchmarkShardedInsertDelete measures the routed update pair on odd keys
// (the even prefill stays resident, so both ops do structural work).
func BenchmarkShardedInsertDelete(b *testing.B) {
	const keyRange = 8192
	for _, s := range []int{1, 4} {
		b.Run(strconv.Itoa(s), func(b *testing.B) {
			m := benchMap(b, keyRange, s)
			for i := 0; i < b.N; i++ {
				k := (i*2 + 1) % keyRange
				m.Insert(nil, k, k)
				m.Delete(nil, k)
			}
		})
	}
}

// BenchmarkShardedGetBatch measures the sorted clustered batch path: one
// sort, one splitter partition, then finger-threaded sub-runs per shard.
// Batches must not allocate (the cuts buffer and the shard fingers are
// pooled); the benchdiff allocs gate pins that at 0.
func BenchmarkShardedGetBatch(b *testing.B) {
	const (
		keyRange = 8192
		batchLen = 64
		window   = 256
	)
	for _, s := range []int{1, 4} {
		b.Run(strconv.Itoa(s), func(b *testing.B) {
			m := benchMap(b, keyRange, s)
			b.StopTimer()
			rng := rand.New(rand.NewPCG(7, 11))
			keys := make([]int, batchLen)
			b.ReportAllocs()
			b.StartTimer()
			for i := 0; i < b.N; i += batchLen {
				base := int(rng.Uint64N(keyRange - window))
				for j := range keys {
					keys[j] = base + int(rng.Uint64N(window))
				}
				m.GetBatch(nil, keys, nil, nil)
			}
		})
	}
}

// BenchmarkShardedInsertDeleteBatch measures the batched update pair over a
// clustered window, the workload the range partition is built for.
func BenchmarkShardedInsertDeleteBatch(b *testing.B) {
	const (
		keyRange = 8192
		batchLen = 64
		window   = 256
	)
	for _, s := range []int{1, 4} {
		b.Run(strconv.Itoa(s), func(b *testing.B) {
			m := benchMap(b, keyRange, s)
			b.StopTimer()
			rng := rand.New(rand.NewPCG(13, 17))
			items := make([]core.KV[int, int], batchLen)
			keys := make([]int, batchLen)
			b.StartTimer()
			for i := 0; i < b.N; i += batchLen {
				base := 1 + int(rng.Uint64N(keyRange-window))
				for j := range items {
					k := base + int(rng.Uint64N(window))
					items[j] = core.KV[int, int]{Key: k | 1, Value: k} // odd: disjoint from prefill
				}
				m.InsertBatch(nil, items, nil)
				for j := range keys {
					keys[j] = items[j].Key
				}
				m.DeleteBatch(nil, keys, nil)
			}
		})
	}
}
