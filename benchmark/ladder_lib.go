package main

import (
	"strings"
	"sync"
	"time"
)

// ladder_lib.go replays a fixed prefix of a library stream through one
// layer after another. It knows the layers only as libTargets; the file of
// each layer builds its target from the layer's public functions.

const (
	ladderWarmOps = 50 * chunkOps  // replayed before the measured prefix
	ladderOps     = 200 * chunkOps // the measured prefix: 204 800 ops
	verbOps       = 64 * chunkOps  // ops of one single-verb pass
)

// libTarget is one layer seen from the replay loop. counts copies out the
// step counters of the Proc the target's calls carry.
type libTarget interface {
	get(k int) (string, bool)
	insert(k int, v string) bool
	delete(k int) bool
	scan(from int, fn func(k int, v string) bool)
	getBatch(keys []int, vals []string, found []bool) int
	counts() opCounts
	resetCounts()
}

// opCounts are a layer's step counters, copied out of its OpStats by the
// layer's own file so that this file needs no internal import.
type opCounts struct {
	essentialSteps, casAttempts, casSuccesses  uint64
	backlinks, helps, fingerHits, fingerMisses uint64
	recycled, freelistHits, freelistMisses     uint64
	stalledEpochs                              uint64
}

// libPrefix is a materialized stream prefix with the values of its inserts
// made beforehand, so a replay allocates nothing of its own.
type libPrefix struct {
	ops  []op
	vals []string
}

func newLibPrefix(g *opGen, n int) libPrefix {
	p := libPrefix{ops: g.prefix(n), vals: make([]string, n)}
	for i, o := range p.ops {
		if o.kind == opInsert {
			p.vals[i] = valueOf(o.key)
		}
	}
	return p
}

func (p libPrefix) slice(lo, hi int) libPrefix { return libPrefix{p.ops[lo:hi], p.vals[lo:hi]} }

// replayLib runs the prefix through t in chunks, one span per chunk under
// parent, and returns the wall time and the number of wrong results. With
// lat non-nil one op in latEvery is timed into it.
func replayLib(t libTarget, p libPrefix, tr *tracer, name string, parent int, lat *latBuf) (ns int64, failed uint64) {
	var scanned, scanPrev int
	scanFn := func(k int, v string) bool {
		if k <= scanPrev || !valueOK(k, v) {
			failed++
		}
		scanPrev = k
		scanned++
		return scanned < scanKeys
	}
	do := func(i int) {
		switch o := p.ops[i]; o.kind {
		case opGet:
			if v, ok := t.get(o.key); ok && !valueOK(o.key, v) {
				failed++
			}
		case opInsert:
			t.insert(o.key, p.vals[i])
		case opDelete:
			t.delete(o.key)
		case opScan:
			scanned, scanPrev = 0, o.key-1
			t.scan(o.key, scanFn)
		}
	}
	start := time.Now()
	for lo := 0; lo < len(p.ops); lo += chunkOps {
		id := tr.begin(name, parent)
		for i := lo; i < min(lo+chunkOps, len(p.ops)); i++ {
			if lat != nil && i%latEvery == 0 {
				t0 := time.Now()
				do(i)
				lat.record(0, int64(time.Since(t0)))
				continue
			}
			do(i)
		}
		tr.end(id)
	}
	return int64(time.Since(start)), failed
}

func prefillTarget(t libTarget, order prefillOrder) {
	for i := 0; i < order.len(); i++ {
		k := order.key(i)
		t.insert(k, valueOf(k))
	}
}

// libRung prefills t, warms it with the first ladderWarmOps of the prefix
// and replays the rest as the rung whose self time is published as metric.
func libRung(metric string, t libTarget, order prefillOrder, p libPrefix, tr *tracer, root int) (rung, uint64) {
	prefillTarget(t, order)
	quiet := &tracer{off: true}
	_, f1 := replayLib(t, p.slice(0, ladderWarmOps), quiet, "", -1, nil)
	t.resetCounts()
	name, _, _ := strings.Cut(metric, ".") // the span carries the layer's name
	ns, f2 := replayLib(t, p.slice(ladderWarmOps, ladderWarmOps+ladderOps), tr, name, root, nil)
	return rung{metric: metric, ns: ns, ops: ladderOps}, f1 + f2
}

// drawKeys draws n distinct keys from g that are present (even) or absent
// (odd) in a freshly prefilled structure.
func drawKeys(g *opGen, n int, present bool) []int {
	keys := make([]int, 0, n)
	seen := make(map[int]bool, n)
	for len(keys) < n {
		k := g.next().key &^ 1
		if !present {
			k |= 1
		}
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	return keys
}

// timeCalls returns the mean wall time in ns of call over keys.
func timeCalls(keys []int, call func(i, key int)) float64 {
	start := time.Now()
	for i, k := range keys {
		call(i, k)
	}
	return float64(time.Since(start)) / float64(len(keys))
}

// verbCosts measures the single-verb costs of a prefilled target holding
// the even keys below keys: hits for get and delete, fresh keys for insert,
// scans of scanKeys keys, and sorted batches of 64 gets.
func verbCosts(t libTarget, keys int, seed uint64, res *result, layer string) {
	g := newOpGen(seed, keys, mix{get: 100})
	n := min(verbOps, keys/8)
	res.set(layer+".get_ns", timeCalls(drawKeys(g, n, true), func(_, k int) { t.get(k) }), "ns")

	fresh := drawKeys(g, n, false)
	vals := make([]string, n)
	for i, k := range fresh {
		vals[i] = valueOf(k)
	}
	mallocs := selfMallocs()
	res.set(layer+".insert_ns", timeCalls(fresh, func(i, k int) { t.insert(k, vals[i]) }), "ns")
	res.set(layer+".allocs_per_insert", float64(selfMallocs()-mallocs)/float64(n), "allocs/op")
	res.set(layer+".delete_ns", timeCalls(drawKeys(g, n, true), func(_, k int) { t.delete(k) }), "ns")

	visited := 0
	scanFn := func(int, string) bool { visited++; return visited%scanKeys != 0 }
	scanNs := timeCalls(drawKeys(g, n/scanKeys, true), func(_, k int) { t.scan(k, scanFn) })
	res.set(layer+".scan_ns_per_key", scanNs*float64(n/scanKeys)/float64(max(visited, 1)), "ns")

	ns, hitRatio := batchCost(t, g, n)
	res.set(layer+".batch64_ns_per_key", ns, "ns")
	res.set(layer+".finger_hit_ratio", hitRatio, "ratio")
}

// batchCost times sorted batch gets of 64 uniform keys, n keys in all, and
// returns ns per key and the share of finger searches that started at the
// remembered node.
func batchCost(t libTarget, g *opGen, n int) (nsPerKey, fingerHitRatio float64) {
	const batch = 64
	keys, vals, found := make([]int, batch), make([]string, batch), make([]bool, batch)
	before := t.counts()
	start := time.Now()
	for b := 0; b < n/batch; b++ {
		for i := range keys {
			keys[i] = g.next().key
		}
		t.getBatch(keys, vals, found)
	}
	nsPerKey = float64(time.Since(start)) / float64(n/batch*batch)
	after := t.counts()
	hits, misses := after.fingerHits-before.fingerHits, after.fingerMisses-before.fingerMisses
	return nsPerKey, float64(hits) / float64(max(hits+misses, 1))
}

// contendedCounts replays disjoint prefixes through targets sharing one
// structure, one goroutine each, and returns their summed step counters:
// CAS failures, backlink walks and helps only exist under concurrency.
func contendedCounts(targets []libTarget, prefixes []libPrefix) opCounts {
	var wg sync.WaitGroup
	quiet := &tracer{off: true}
	for i, t := range targets {
		wg.Add(1)
		go func(t libTarget, p libPrefix) {
			defer wg.Done()
			replayLib(t, p, quiet, "", -1, nil)
		}(t, prefixes[i])
	}
	wg.Wait()
	var sum opCounts
	for _, t := range targets {
		c := t.counts()
		sum.casAttempts += c.casAttempts
		sum.casSuccesses += c.casSuccesses
		sum.backlinks += c.backlinks
		sum.helps += c.helps
	}
	return sum
}
