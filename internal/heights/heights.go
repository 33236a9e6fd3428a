// Package heights is the one tower-height rule every skip list in this
// repository shares. A tower's height is read off 64 bits - a seeded hash
// of its key where the key type can be hashed, a seeded generator's next
// word where it cannot - two bits per level: height h = 1 + ⌊trailing ones
// / 2⌋, so P(height >= j) = 4^-(j-1). That is Pugh's p = 1/4 (CACM 1990):
// the expected search cost of p = 1/2 with 1.33 levels a tower instead
// of 2.
//
// Heights from a hash of the key make a skip list's shape a function of
// its key set alone (history independence, Naor & Teague, STOC 2001): one
// seed and one key set give one set of towers in any order of inserts and
// deletes. The expected O(log n) search holds for key sets chosen
// independently of the seed; a party that knows the seed can choose keys
// whose towers are all short (or all tall), so a process that takes keys
// from untrusted clients uses a private random seed.
package heights

import (
	"cmp"
	"math"
	"math/bits"
	"reflect"
	"sync/atomic"
)

// DefaultSeed is the seed a skip list uses unless told otherwise. It is
// fixed, so one key set gives one shape in every process: in tests, in
// benchmarks, and in a server rebuilt from its log.
const DefaultSeed uint64 = 2004

// golden is 2^64 divided by the golden ratio, the splitmix64 increment.
const golden = 0x9e3779b97f4a7c15

// Of returns the height of a tower whose bits are b in a skip list whose
// head towers are maxLevel high: 1 + half the trailing one bits of b,
// capped at maxLevel-1 so the top level stays an empty express lane. A
// list (maxLevel 2) gets height 1 whatever b is.
func Of(b uint64, maxLevel int) int {
	return min(1+bits.TrailingZeros64(^b)/2, maxLevel-1)
}

// Bits returns the bits whose height is h, capped to [1, 33]: the inverse
// of Of, for shapes rigged by hand.
func Bits(h int) uint64 {
	return 1<<(2*min(max(h, 1), 33)-2) - 1
}

// Mass returns the probability that Of gives height h when maxLevel does
// not cap it: (3/4) 4^-(h-1).
func Mass(h int) float64 {
	return 0.75 * math.Pow(0.25, float64(h-1))
}

// Key returns the height bits of key k under seed: a seeded 64-bit mix of
// the key's value - integers directly, floats through math.Float64bits
// (with -0 and every NaN folded to one key, as cmp.Compare orders them),
// strings eight bytes at a time.
func Key[K cmp.Ordered](seed uint64, k K) uint64 {
	switch v := any(k).(type) { // the repository's own key types
	case int:
		return mix(seed ^ uint64(v)*golden)
	case string:
		return str(seed, v)
	}
	// Every other kind cmp.Ordered admits, named types included; reflect
	// reads the value without allocating.
	switch v := reflect.ValueOf(k); v.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return mix(seed ^ uint64(v.Int())*golden)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return mix(seed ^ v.Uint()*golden)
	case reflect.Float32, reflect.Float64:
		return float(seed, v.Float())
	default:
		return str(seed, v.String())
	}
}

// Source is a seeded generator of height bits for key types no hash
// reaches (the ...Func constructors' comparable keys): splitmix64 over an
// atomic counter. Safe for concurrent use; single-threaded, one seed gives
// one sequence.
type Source struct {
	seed uint64
	n    atomic.Uint64
}

// NewSource returns a generator seeded with seed.
func NewSource(seed uint64) *Source { return &Source{seed: seed} }

// Next returns the next 64 bits of the sequence.
func (s *Source) Next() uint64 { return mix(s.seed + s.n.Add(golden)) }

// float hashes f with -0 folded onto +0 and every NaN onto one.
func float(seed uint64, f float64) uint64 {
	switch {
	case f == 0:
		f = 0
	case math.IsNaN(f):
		f = math.NaN()
	}
	return mix(seed ^ math.Float64bits(f)*golden)
}

// str hashes s eight little-endian bytes at a time, the seed and the
// length entering before the first word.
func str(seed uint64, s string) uint64 {
	h := mix(seed ^ uint64(len(s))*golden)
	for ; len(s) >= 8; s = s[8:] {
		h = mix(h ^ (uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
			uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56))
	}
	var w uint64
	for i := len(s) - 1; i >= 0; i-- {
		w = w<<8 | uint64(s[i])
	}
	return mix(h ^ w)
}

// mix is the splitmix64 finalizer: a bijection whose every output bit
// depends on every input bit.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}
