package core

import (
	"math/rand/v2"
	"sync/atomic"
	"testing"
)

func benchSizes() []int { return []int{128, 1024, 8192} }

func BenchmarkListSearch(b *testing.B) {
	for _, n := range benchSizes() {
		b.Run(itoa(n), func(b *testing.B) {
			l := NewList[int, int]()
			for k := 0; k < n; k++ {
				l.Insert(nil, k, k)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l.Search(nil, (i*7919)%n)
			}
		})
	}
}

func BenchmarkListInsertDelete(b *testing.B) {
	for _, n := range benchSizes() {
		b.Run(itoa(n), func(b *testing.B) {
			l := NewList[int, int]()
			for k := 0; k < n; k += 2 {
				l.Insert(nil, k, k)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := (i*2 + 1) % n
				l.Insert(nil, k, k)
				l.Delete(nil, k)
			}
		})
	}
}

func BenchmarkListContendedHotKeys(b *testing.B) {
	l := NewList[int, int]()
	const keyRange = 32
	var seed atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewPCG(uint64(seed.Add(1)), 1))
		p := &Proc{}
		for pb.Next() {
			k := int(rng.Uint64N(keyRange))
			switch rng.Uint64N(3) {
			case 0:
				l.Insert(p, k, k)
			case 1:
				l.Delete(p, k)
			default:
				l.Search(p, k)
			}
		}
	})
}

// BenchmarkSkipListContendedHotKeys runs two goroutines per P on a handful
// of hot keys, half Insert and half Delete, so operations keep racing for
// the same predecessor cells: the row that shows what a failed C&S costs
// when it retries at once.
func BenchmarkSkipListContendedHotKeys(b *testing.B) {
	for _, keyRange := range []uint64{8, 64} {
		b.Run(itoa(int(keyRange)), func(b *testing.B) {
			l := NewSkipList[int, int]()
			var seed atomic.Int64
			b.SetParallelism(2)
			b.RunParallel(func(pb *testing.PB) {
				rng := rand.New(rand.NewPCG(uint64(seed.Add(1)), 3))
				p := &Proc{}
				for pb.Next() {
					k := int(rng.Uint64N(keyRange))
					if rng.Uint64N(2) == 0 {
						l.Insert(p, k, k)
					} else {
						l.Delete(p, k)
					}
				}
			})
		})
	}
}

func BenchmarkSkipListSearch(b *testing.B) {
	for _, n := range []int{1024, 65536, 1 << 20} {
		b.Run(itoa(n), func(b *testing.B) {
			l := NewSkipList[int, int]()
			for k := 0; k < n; k++ {
				l.Insert(nil, k, k)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l.Search(nil, (i*7919)%n)
			}
		})
	}
}

func BenchmarkSkipListInsertDelete(b *testing.B) {
	l := NewSkipList[int, int]()
	const n = 65536
	for k := 0; k < n; k += 2 {
		l.Insert(nil, k, k)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := (i*2 + 1) % n
		l.Insert(nil, k, k)
		l.Delete(nil, k)
	}
}

func BenchmarkSkipListMixedParallel(b *testing.B) {
	l := NewSkipList[int, int]()
	const keyRange = 4096
	for k := 0; k < keyRange; k += 2 {
		l.Insert(nil, k, k)
	}
	var seed atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewPCG(uint64(seed.Add(1)), 2))
		p := &Proc{}
		for pb.Next() {
			k := int(rng.Uint64N(keyRange))
			switch rng.Uint64N(10) {
			case 0:
				l.Insert(p, k, k)
			case 1:
				l.Delete(p, k)
			default:
				l.Search(p, k)
			}
		}
	})
}

// Clustered workloads: each goroutine works through runs of keys confined
// to a small window before jumping to a fresh one — the access pattern
// fingers and sorted batches exist for. Every pb.Next() is one key
// operation in both modes, so the perKey and batch64 ns/op compare
// directly; the batch mode buffers clusterBatch keys and flushes them
// through the finger-threaded batch call.
const (
	clusterWindow = 256
	clusterBatch  = 64
)

func benchClustered(b *testing.B, n int, perKey func(p *Proc, k int), batch func(p *Proc, keys []int)) {
	var seed atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewPCG(uint64(seed.Add(1)), 9))
		p := &Proc{}
		keys := make([]int, 0, clusterBatch)
		base, left := 0, 0
		for pb.Next() {
			if left == 0 {
				base = int(rng.Uint64N(uint64(n - clusterWindow)))
				left = clusterBatch
			}
			k := base + int(rng.Uint64N(clusterWindow))
			left--
			if batch == nil {
				perKey(p, k)
				continue
			}
			keys = append(keys, k)
			if len(keys) == clusterBatch {
				batch(p, keys)
				keys = keys[:0]
			}
		}
		if len(keys) > 0 {
			batch(p, keys)
		}
	})
}

func BenchmarkClusteredListGet(b *testing.B) {
	const n = 8192
	l := NewList[int, int]()
	for k := 0; k < n; k++ {
		l.Insert(nil, k, k)
	}
	b.Run("perKey", func(b *testing.B) {
		benchClustered(b, n, func(p *Proc, k int) { l.Get(p, k) }, nil)
	})
	b.Run("batch64", func(b *testing.B) {
		benchClustered(b, n, nil, func(p *Proc, keys []int) { l.GetBatch(p, keys, nil, nil) })
	})
}

func BenchmarkClusteredSkipListGet(b *testing.B) {
	const n = 65536
	l := NewSkipList[int, int]()
	for k := 0; k < n; k++ {
		l.Insert(nil, k, k)
	}
	b.Run("perKey", func(b *testing.B) {
		benchClustered(b, n, func(p *Proc, k int) { l.Get(p, k) }, nil)
	})
	b.Run("batch64", func(b *testing.B) {
		benchClustered(b, n, nil, func(p *Proc, keys []int) { l.GetBatch(p, keys, nil, nil) })
	})
}

// BenchmarkClusteredSkipListChurn covers the update half of the clustered
// story: every key op is an insert immediately undone by a delete, per-key
// or as sorted 64-element batches.
func BenchmarkClusteredSkipListChurn(b *testing.B) {
	const n = 65536
	newPrefilled := func() *SkipList[int, int] {
		l := NewSkipList[int, int]()
		for k := 0; k < n; k += 2 {
			l.Insert(nil, k, k)
		}
		return l
	}
	b.Run("perKey", func(b *testing.B) {
		l := newPrefilled()
		benchClustered(b, n, func(p *Proc, k int) {
			l.Insert(p, k, k)
			l.Delete(p, k)
		}, nil)
	})
	b.Run("batch64", func(b *testing.B) {
		l := newPrefilled()
		var seed atomic.Int64
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			rng := rand.New(rand.NewPCG(uint64(seed.Add(1)), 9))
			p := &Proc{}
			buf := make([]KV[int, int], 0, clusterBatch)
			keys := make([]int, 0, clusterBatch)
			flush := func() {
				l.InsertBatch(p, buf, nil)
				l.DeleteBatch(p, keys, nil)
				buf, keys = buf[:0], keys[:0]
			}
			base, left := 0, 0
			for pb.Next() {
				if left == 0 {
					base = int(rng.Uint64N(uint64(n - clusterWindow)))
					left = clusterBatch
				}
				k := base + int(rng.Uint64N(clusterWindow))
				left--
				buf = append(buf, KV[int, int]{Key: k, Value: k})
				keys = append(keys, k)
				if len(buf) == clusterBatch {
					flush()
				}
			}
			if len(buf) > 0 {
				flush()
			}
		})
	})
}

// BenchmarkSkipListMaxLevelAblation measures how the maxLevel cap affects
// search cost at a fixed size - the design-choice ablation DESIGN.md calls
// out (too low a cap degrades to O(n/2^max); too high wastes head links).
func BenchmarkSkipListMaxLevelAblation(b *testing.B) {
	const n = 32768
	for _, ml := range []int{4, 8, 16, 32} {
		b.Run("maxLevel="+itoa(ml), func(b *testing.B) {
			l := NewSkipList[int, int](WithMaxLevel(ml))
			for k := 0; k < n; k++ {
				l.Insert(nil, k, k)
			}
			st := &OpStats{}
			p := &Proc{Stats: st}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l.Search(p, (i*7919)%n)
			}
			b.ReportMetric(float64(st.EssentialSteps())/float64(b.N), "steps/op")
		})
	}
}

// BenchmarkSuccessorRecordAllocation isolates the memory cost of the
// record mechanism that replaces the paper's pointer tag bits. With
// interned records the 4 C&S's per iteration install pre-built records:
// the node made by Insert is the only allocation per cycle.
func BenchmarkSuccessorRecordAllocation(b *testing.B) {
	l := NewList[int, int]()
	l.Insert(nil, 0, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// insert+delete of the same key: 1 insertion C&S + 3 deletion
		// C&S's, all on interned records — 1 node allocation, 0 record
		// allocations per iteration.
		l.Insert(nil, 1, 1)
		l.Delete(nil, 1)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
