package instrument

import (
	"runtime"
	"sync/atomic"
	"unsafe"
)

// This file owns the repo's one stripe: the cache-line size, the stripe
// count and the goroutine-affine hash that every striped structure (this
// package's ShardedInt64, the telemetry recorder, the EBR pins and free
// lists) sizes and indexes its stripes by.

// CacheLine is the assumed cache-line size; 64 bytes is correct for every
// amd64/arm64 part this code will plausibly run on. Being wrong only costs
// a little false sharing, never correctness.
const CacheLine = 64

// maxStripes caps every stripe count.
const maxStripes = 256

// Stripes returns the stripe count of a striped structure: n rounded up
// to a power of two and capped at 256; n <= 0 selects twice GOMAXPROCS.
// Index an array of that length with Stripe() & uint32(len-1).
func Stripes(n int) int {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0) * 2
	}
	s := 1
	for s < n && s < maxStripes {
		s <<= 1
	}
	return s
}

// Stripe returns a goroutine-affine hash used to pick a stripe. Go offers
// no cheap public goroutine ID, so it hashes the address of a stack
// variable: distinct goroutines occupy distinct stacks, giving a
// stable-enough spread for a couple of arithmetic ops. A collision is
// harmless (two goroutines merely share a stripe), and so is a goroutine
// landing on another stripe after its stack moved or from another call
// depth. The address is only hashed, never dereferenced or retained, so
// this use of unsafe cannot outlive the frame.
func Stripe() uint32 {
	var marker byte
	p := uintptr(unsafe.Pointer(&marker))
	// Fibonacci hashing; stack addresses share low bits (alignment) and
	// high bits (arena), the middle bits carry the per-goroutine entropy.
	return uint32((p * 0x9E3779B97F4A7C15) >> 33)
}

// counterShard is one stripe of a ShardedInt64, padded so two shards never
// share a cache line.
type counterShard struct {
	v atomic.Int64
	_ [CacheLine - 8]byte
}

// ShardedInt64 is a striped int64 counter for write-hot paths shared by
// many goroutines (the lists' Len maintenance): Add touches a single
// goroutine-affine shard instead of serializing every writer on one cache
// line, and Load sums the shards.
//
// Semantics: Add is atomic within its shard, so the counter is exact in
// any quiescent state. A concurrent Load may miss deltas still in flight,
// but never by more than the number of in-flight Adds, and never counts a
// delta twice - each Add lands in exactly one shard and Load reads each
// shard exactly once.
//
// The zero value is not usable; call Init before sharing the counter.
type ShardedInt64 struct {
	shards []counterShard
	mask   uint32
}

// Init sizes the counter to Stripes(0) shards and must be called before
// the counter is shared.
func (c *ShardedInt64) Init() {
	n := Stripes(0)
	c.shards = make([]counterShard, n)
	c.mask = uint32(n - 1)
}

// Add atomically adds delta to the calling goroutine's shard. It never
// allocates.
func (c *ShardedInt64) Add(delta int64) {
	c.shards[Stripe()&c.mask].v.Add(delta)
}

// Load returns the sum of all shards; see the type comment for its
// consistency guarantees.
func (c *ShardedInt64) Load() int64 {
	var sum int64
	for i := range c.shards {
		sum += c.shards[i].v.Load()
	}
	return sum
}

// Shards returns the shard count (for tests and diagnostics).
func (c *ShardedInt64) Shards() int { return len(c.shards) }
