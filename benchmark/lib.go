package main

import (
	"fmt"
	"sync"
	"time"

	"repro/lockfree"
)

// The library workloads drive lflserver's default store type in-process:
// a 4-shard ShardedSkipList over [0, keySpace), every even key of the
// workload's key range prefilled, T goroutines in a closed loop.

const (
	storeShards = 4  // lflserver's default -shards
	scanKeys    = 64 // keys one AscendRange visits
	latEvery    = 64 // one op in latEvery is timed
)

type libWorkload struct {
	name string
	keys int // ops draw keys from [0, keys); keys/2 are prefilled
	m    mix
}

var (
	libRead  = libWorkload{name: "lib_read", keys: keySpace, m: mix{get: 88, insert: 5, delete: 5, scan: 2}}
	libChurn = libWorkload{name: "lib_churn", keys: 4096, m: mix{insert: 50, delete: 50}}
)

type libStore = lockfree.ShardedSkipList[int, string]

func newLibStore(opts ...lockfree.Option) *libStore {
	return lockfree.NewShardedSkipList[int, string](lockfree.EqualSplitters(0, keySpace, storeShards), opts...)
}

func prefillLib(s *libStore, order prefillOrder) {
	for i := 0; i < order.len(); i++ {
		k := order.key(i)
		s.Insert(k, valueOf(k))
	}
}

// libTally is what one client goroutine saw.
type libTally struct {
	ops, inserted, deleted, failed uint64
}

// libClient runs one closed-loop client until the clock says stop. It
// allocates nothing per op: ops come from the generator, the scan callback
// is built once, latencies go into preallocated buffers.
func libClient(s *libStore, g *opGen, clock *windowClock, done *paddedCounter, lat *latBuf) libTally {
	var t libTally
	var scanned, scanPrev int
	scanFn := func(k int, v string) bool {
		if k <= scanPrev || !valueOK(k, v) {
			t.failed++
		}
		scanPrev = k
		scanned++
		return scanned < scanKeys
	}
	do := func(o op) {
		switch o.kind {
		case opGet:
			if v, ok := s.Get(o.key); ok && !valueOK(o.key, v) {
				t.failed++
			}
		case opInsert:
			if s.Insert(o.key, valueOf(o.key)) {
				t.inserted++
			}
		case opDelete:
			if s.Delete(o.key) {
				t.deleted++
			}
		case opScan:
			scanned, scanPrev = 0, o.key-1
			s.AscendRange(o.key, keySpace, scanFn)
		}
	}
	for {
		w := clock.window()
		if w >= windows {
			return t
		}
		o := g.next()
		t0 := time.Now()
		do(o)
		lat.record(w, int64(time.Since(t0)))
		for i := 1; i < latEvery; i++ {
			do(g.next())
		}
		t.ops += latEvery
		done.n.Add(latEvery)
	}
}

func runLib(w libWorkload, seed uint64, sz sizing) (result, error) {
	T := clients()
	order := newPrefillOrder(streamSeed(seed, w.name, -1), w.keys)

	// Set-up: construct + prefill, repeated; the last store is the one
	// measured, and its heap growth gives bytes per key.
	var store *libStore
	var heapBefore uint64
	// lib_churn's set-up takes 1.5 ms: it is repeated for two seconds, so the
	// median spans the box's slow noise rather than one quiet or busy moment.
	setupS, err := medianSetup(sz.setupReps, 2001, time.Duration(sz.setupReps)*time.Second*2/3, func() (time.Duration, error) {
		heapBefore = heapLive()
		t0 := time.Now()
		store = newLibStore()
		prefillLib(store, order)
		return time.Since(t0), nil
	}, func() { store = nil })
	if err != nil {
		return result{}, err
	}
	memPerKey := float64(heapLive()-heapBefore) / float64(store.Len())

	warm, win := windowSplit(sz.seconds, windows)
	clock := newWindowClock()
	done := make([]paddedCounter, T)
	lats := make([]*latBuf, T)
	tallies := make([]libTally, T)
	perWindow := int(win.Seconds()*5e6/latEvery) + 1024
	var wg sync.WaitGroup
	for c := 0; c < T; c++ {
		lats[c] = newLatBuf(windows, perWindow)
		g := newOpGen(streamSeed(seed, w.name, c), w.keys, w.m)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tallies[c] = libClient(store, g, clock, &done[c], lats[c])
		}(c)
	}
	samples := clock.run(warm, win, windows, func() probeSample {
		return probeSample{t: time.Now(), ops: sumCounters(done), cpu: selfCPU(), mallocs: selfMallocs()}
	})
	wg.Wait()

	// Output checks: the size the clients' successes imply, and a full
	// ordered walk with every value checked.
	var total libTally
	for _, t := range tallies {
		total.ops += t.ops
		total.inserted += t.inserted
		total.deleted += t.deleted
		total.failed += t.failed
	}
	want := order.len() + int(total.inserted) - int(total.deleted)
	if got := store.Len(); got != want {
		total.failed++
		fmt.Printf("# %s: Len() = %d, want %d\n", w.name, got, want)
	}
	walked, prev := 0, -1
	store.Ascend(func(k int, v string) bool {
		if k <= prev || !valueOK(k, v) {
			total.failed++
		}
		prev = k
		walked++
		return true
	})
	if walked != want {
		total.failed++
		fmt.Printf("# %s: Ascend visited %d keys, want %d\n", w.name, walked, want)
	}

	r := rates(samples)
	pct, nLat, _ := windowPercentiles(lats, 0.50, 0.90, 0.99)
	res := newResult(total.ops, total.failed)
	res.set("setup_s", setupS, "s")
	res.set("throughput_ops_s", r.throughput, "ops/s")
	res.set("cpu_us_per_op", r.cpuUsPerOp, "us")
	res.set("allocs_per_op", r.allocsPerOp, "allocs/op")
	res.set("mem_bytes_per_key", memPerKey, "B/key")
	res.set("lat_p50_us", pct[0]/1e3, "us")
	res.set("e2e.lat_p90_us", pct[1]/1e3, "us")
	res.set("e2e.lat_p99_us", pct[2]/1e3, "us")
	res.note("clients=%d windows=%d window_s=%.2f ops=%d lat_samples=%d", T, windows, win.Seconds(), r.ops, nLat)
	res.note("window throughput %.0f", r.perWindow)
	return res, nil
}
