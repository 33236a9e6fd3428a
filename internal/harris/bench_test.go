package harris

import (
	"math/rand/v2"
	"sync/atomic"
	"testing"

	"repro/internal/heights"
)

func BenchmarkHarrisListSearch(b *testing.B) {
	for _, n := range []int{128, 1024, 8192} {
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

func BenchmarkHarrisListInsertDelete(b *testing.B) {
	l := NewList[int, int]()
	const n = 1024
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

func BenchmarkHarrisSkipListMixedParallel(b *testing.B) {
	l := NewSkipList[int, int](0, heights.DefaultSeed)
	const keyRange = 4096
	for k := 0; k < keyRange; k += 2 {
		l.Insert(nil, k, k)
	}
	var seed atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewPCG(uint64(seed.Add(1)), 3))
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
