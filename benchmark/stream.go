package main

// stream.go generates every input of the benchmark from the seed: the op
// streams of the four workloads, the prefill order and the key-derived
// values. The program under test sees only the generated ops.

const (
	keySpace = 1 << 20 // keys are ints in [0, keySpace)
	valueLen = 64      // every value is valueLen bytes, derived from its key
)

type opKind uint8

const (
	opGet opKind = iota
	opInsert
	opDelete
	opScan
)

type op struct {
	kind opKind
	key  int
}

// mix is an operation mix in percent; the four shares sum to 100.
type mix struct{ get, insert, delete, scan int }

// splitmix64 is the generator behind every stream: small, seedable, and
// free of allocation so streams can be drawn inside a measured window.
type splitmix64 struct{ s uint64 }

func (r *splitmix64) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	return mix64(r.s)
}

func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// streamSeed derives the seed of one client's stream from the run seed,
// the workload and the client index, so streams never coincide.
func streamSeed(seed uint64, workload string, client int) uint64 {
	h := seed
	for i := 0; i < len(workload); i++ {
		h = mix64(h ^ uint64(workload[i]))
	}
	return mix64(h + uint64(client)*0x51ed27)
}

// opGen draws one client's ops: uniform keys in [0, keys), kinds by mix.
// With writeStride > 1 a mutation's key is moved to the client's residue
// class (key ≡ writeResidue mod writeStride), so no two clients write the
// same key and each client can model its own keys exactly.
type opGen struct {
	rng          splitmix64
	keys         int
	m            mix
	writeStride  int
	writeResidue int
}

func newOpGen(seed uint64, keys int, m mix) *opGen {
	return &opGen{rng: splitmix64{s: seed}, keys: keys, m: m, writeStride: 1}
}

func (g *opGen) next() op {
	r := g.rng.next()
	key := int((r >> 32) * uint64(g.keys) >> 32) // keys <= 2^20, no overflow
	pct := int(r & 0xffffffff * 100 >> 32)
	var kind opKind
	switch {
	case pct < g.m.get:
		kind = opGet
	case pct < g.m.get+g.m.insert:
		kind = opInsert
	case pct < g.m.get+g.m.insert+g.m.delete:
		kind = opDelete
	default:
		kind = opScan
	}
	if g.writeStride > 1 && (kind == opInsert || kind == opDelete) {
		key = key/g.writeStride*g.writeStride + g.writeResidue
		if key >= g.keys {
			key -= g.writeStride
		}
	}
	return op{kind: kind, key: key}
}

// prefix materializes the next n ops; the ladder replays such prefixes.
func (g *opGen) prefix(n int) []op {
	out := make([]op, n)
	for i := range out {
		out[i] = g.next()
	}
	return out
}

// streamHash folds the first n ops of a stream into one number; the tests
// use it to pin "same seed, same inputs".
func streamHash(g *opGen, n int) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < n; i++ {
		o := g.next()
		h = mix64(h ^ (uint64(o.key)<<2 | uint64(o.kind)))
	}
	return h
}

// prefillOrder visits every even key below keys exactly once, in an order
// scattered by the seed (an odd multiplier is a bijection mod a power of
// two), so the structure is not built in memory order.
type prefillOrder struct {
	n, mul, off int
}

func newPrefillOrder(seed uint64, keys int) prefillOrder {
	n := keys / 2
	if n&(n-1) != 0 {
		panic("prefill: key range must be a power of two")
	}
	r := splitmix64{s: seed ^ 0x70726566}
	return prefillOrder{n: n, mul: int(r.next()%uint64(n)) | 1, off: int(r.next() % uint64(n))}
}

func (p prefillOrder) len() int { return p.n }

func (p prefillOrder) key(i int) int { return 2 * ((i*p.mul + p.off) & (p.n - 1)) }

const hexDigits = "0123456789abcdef"

// valueHead writes the 16 characters every quarter of key's value repeats.
func valueHead(key int, b *[16]byte) {
	h := mix64(uint64(key) + 0x6c666c62)
	for i := 15; i >= 0; i-- {
		b[i] = hexDigits[h&15]
		h >>= 4
	}
}

// valueOf returns the value stored under key: four copies of valueHead.
func valueOf(key int) string {
	var b [valueLen]byte
	valueBytes(key, &b)
	return string(b[:])
}

func valueBytes(key int, b *[valueLen]byte) {
	var h [16]byte
	valueHead(key, &h)
	for i := 0; i < valueLen; i += 16 {
		copy(b[i:], h[:])
	}
}

// valueOK reports whether v is key's value, without allocating.
func valueOK[T string | []byte](key int, v T) bool {
	if len(v) != valueLen {
		return false
	}
	var h [16]byte
	valueHead(key, &h)
	for i := 0; i < valueLen; i += 16 {
		if string(v[i:i+16]) != string(h[:]) {
			return false
		}
	}
	return true
}
