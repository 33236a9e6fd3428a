package sundell

import (
	"math/rand/v2"
	"sync/atomic"
	"testing"

	"repro/internal/heights"
)

func BenchmarkSundellSearch(b *testing.B) {
	for _, n := range []int{1024, 65536} {
		b.Run(itoa(n), func(b *testing.B) {
			l := New[int, int](0, heights.DefaultSeed)
			for k := 0; k < n; k++ {
				l.Insert(nil, k, k)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l.Contains(nil, (i*7919)%n)
			}
		})
	}
}

func BenchmarkSundellInsertDelete(b *testing.B) {
	l := New[int, int](0, heights.DefaultSeed)
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

func BenchmarkSundellMixedParallel(b *testing.B) {
	l := New[int, int](0, heights.DefaultSeed)
	const keyRange = 4096
	for k := 0; k < keyRange; k += 2 {
		l.Insert(nil, k, k)
	}
	var seed atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewPCG(uint64(seed.Add(1)), 4))
		for pb.Next() {
			k := int(rng.Uint64N(keyRange))
			switch rng.Uint64N(10) {
			case 0:
				l.Insert(nil, k, k)
			case 1:
				l.Delete(nil, k)
			default:
				l.Contains(nil, k)
			}
		}
	})
}

func itoa(n int) string {
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	if i == len(buf) {
		return "0"
	}
	return string(buf[i:])
}
