package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/instrument"
	"repro/internal/obshttp"
	"repro/internal/sharded"
	"repro/internal/workload"
	"repro/lockfree"
	ltel "repro/lockfree/telemetry"
)

// serveTelemetry exposes /metrics and /debug/vars while the run is live.
func serveTelemetry(addr string) (stop func(), bound string, err error) {
	bound, stop, err = obshttp.Serve(addr)
	return stop, bound, err
}

// The "bench" stage is the machine-readable counterpart of the experiment
// tables: it drives the primary structures with telemetry attached —
// sampling period 1 (exact recording) on the uniform rows, period
// clusterSampleEvery on the clustered rows, where exact recording's flat
// per-op cost would bury the amortization under test — and emits
// BENCH_lflbench.json with
// ops/sec, essential steps per operation, allocs/op and bytes/op over the
// measured window, the full counter vector, and latency quantiles taken
// from the live histograms — the same numbers a production scrape of
// /metrics would see.

// benchJSON is the file schema.
type benchJSON struct {
	Schema     string     `json:"schema"` // "lflbench/v1"
	GoMaxProcs int        `json:"go_max_procs"`
	Quick      bool       `json:"quick"`
	Benchmarks []benchRow `json:"benchmarks"`
}

type benchRow struct {
	// Machine-independent configuration first, measurements after, so
	// diffs of the checked-in trajectory lead with what was run.
	Impl    string `json:"impl"`
	Threads int    `json:"threads"`
	// Shards is the shard count of the fr-sharded rows (1 is the routing-
	// overhead control: one skip list behind the splitter layer); 0 for the
	// unsharded implementations.
	Shards   int    `json:"shards"`
	Mix      string `json:"mix"`
	KeyRange int    `json:"key_range"`
	// Workload is "uniform" (independent uniform keys) or "clustered"
	// (sorted runs of clusterOps keys inside a clusterWindow-wide window).
	// Batch is 0 for per-key operations or the batch length when the run
	// goes through the batch API — the per-key row of the
	// same workload, key range and thread count is the baseline the batch
	// row's ops/sec is judged against. The clustered pairs sit at the
	// small end of the inter-key gap range; the uniform pairs on the
	// clustered mix (runs of clusterOps keys drawn from the whole key
	// range) sit at the large end, where a batch must still not lose.
	Workload string `json:"workload"`
	Batch    int    `json:"batch"`
	// Recycle is true on the churn rows that run with EBR-backed node
	// recycling enabled; the matching recycle=false row is the control the
	// allocs_per_op drop is judged against.
	Recycle bool `json:"recycle"`
	// SampleEvery is the telemetry sampling period the row ran under: 1
	// (exact recording) for the uniform rows, clusterSampleEvery for the
	// clustered and churn ones, where exact recording's flat per-op cost
	// would bury the amortization being measured.
	SampleEvery         int     `json:"sample_every"`
	Ops                 int     `json:"ops"`
	OpsPerSec           float64 `json:"ops_per_sec"`
	EssentialStepsPerOp float64 `json:"essential_steps_per_op"`
	// AllocsPerOp/BytesPerOp are heap deltas (runtime.MemStats Mallocs /
	// TotalAlloc) over the measured window divided by completed ops, so
	// the perf trajectory records memory as well as throughput. They
	// include the harness's own small constant overhead (goroutine wind-
	// down, snapshot plumbing), which is why steady-state values sit near
	// zero rather than at it; the hard 0-alloc guarantees are pinned by
	// TestAllocs* in internal/core.
	AllocsPerOp float64              `json:"allocs_per_op"`
	BytesPerOp  float64              `json:"bytes_per_op"`
	Counters    map[string]uint64    `json:"counters"`
	Latency     map[string]latencyNS `json:"latency"`
}

type latencyNS struct {
	Count  uint64 `json:"count"`
	MeanNS int64  `json:"mean_ns"`
	P50NS  int64  `json:"p50_ns"`
	P99NS  int64  `json:"p99_ns"`
}

// benchDict adapts the two primary structures; unlike experiments.NewDict
// it attaches a telemetry recorder.
type benchDict interface {
	insert(k int) bool
	remove(k int) bool
	contains(k int) bool
	insertBatch(items []core.KV[int, int]) int
	removeBatch(keys []int) int
	containsBatch(keys []int) int
	// reclaim forces the reclamation domain through enough epochs to drain
	// every quiesced retire batch; the churn rows use it to stock the free
	// lists before the measured window opens.
	reclaim()
}

type benchList struct{ l *core.List[int, int] }

func (d benchList) insert(k int) bool   { _, ok := d.l.Insert(nil, k, k); return ok }
func (d benchList) remove(k int) bool   { _, ok := d.l.Delete(nil, k); return ok }
func (d benchList) contains(k int) bool { return d.l.Search(nil, k) != nil }

func (d benchList) insertBatch(items []core.KV[int, int]) int {
	return d.l.InsertBatch(nil, items, nil)
}
func (d benchList) removeBatch(keys []int) int   { return d.l.DeleteBatch(nil, keys, nil) }
func (d benchList) containsBatch(keys []int) int { return d.l.GetBatch(nil, keys, nil, nil) }
func (d benchList) reclaim() {
	for i := 0; i < 6; i++ {
		d.l.ForceReclaim(nil)
	}
}

type benchSkip struct{ l *core.SkipList[int, int] }

func (d benchSkip) insert(k int) bool   { _, ok := d.l.Insert(nil, k, k); return ok }
func (d benchSkip) remove(k int) bool   { _, ok := d.l.Delete(nil, k); return ok }
func (d benchSkip) contains(k int) bool { return d.l.Search(nil, k) != nil }

func (d benchSkip) insertBatch(items []core.KV[int, int]) int {
	return d.l.InsertBatch(nil, items, nil)
}
func (d benchSkip) removeBatch(keys []int) int   { return d.l.DeleteBatch(nil, keys, nil) }
func (d benchSkip) containsBatch(keys []int) int { return d.l.GetBatch(nil, keys, nil, nil) }
func (d benchSkip) reclaim() {
	for i := 0; i < 6; i++ {
		d.l.ForceReclaim(nil)
	}
}

type benchSharded struct{ m *sharded.Map[int, int] }

func (d benchSharded) insert(k int) bool   { _, ok := d.m.Insert(nil, k, k); return ok }
func (d benchSharded) remove(k int) bool   { _, ok := d.m.Delete(nil, k); return ok }
func (d benchSharded) contains(k int) bool { _, ok := d.m.Get(nil, k); return ok }

func (d benchSharded) insertBatch(items []core.KV[int, int]) int {
	return d.m.InsertBatch(nil, items, nil)
}
func (d benchSharded) removeBatch(keys []int) int   { return d.m.DeleteBatch(nil, keys, nil) }
func (d benchSharded) containsBatch(keys []int) int { return d.m.GetBatch(nil, keys, nil, nil) }
func (d benchSharded) reclaim() {
	for s := 0; s < d.m.Shards(); s++ {
		for i := 0; i < 6; i++ {
			d.m.Shard(s).ForceReclaim(nil)
		}
	}
}

func newBenchDict(cfg benchConfig, tel *ltel.Telemetry) benchDict {
	switch cfg.impl {
	case "fr-list":
		l := core.NewList[int, int]()
		if cfg.recycle {
			l.EnableRecycling()
		}
		l.SetTelemetry(tel.Recorder())
		return benchList{l}
	case "fr-skiplist":
		var opts []core.SkipListOption
		if cfg.recycle {
			opts = append(opts, core.WithRecycling())
		}
		l := core.NewSkipList[int, int](opts...)
		l.SetTelemetry(tel.Recorder())
		return benchSkip{l}
	case "fr-sharded":
		var opts []core.SkipListOption
		if cfg.recycle {
			opts = append(opts, core.WithRecycling())
		}
		m := sharded.New[int, int](lockfree.EqualSplitters(0, cfg.keyRange, cfg.shards), opts...)
		m.SetTelemetry(tel.Recorder())
		return benchSharded{m}
	default:
		panic("unknown bench implementation " + cfg.impl)
	}
}

// clusterOps keys are issued inside one clusterWindow-wide window before
// the clustered workload jumps to a fresh window; the batch rows flush
// them as one sorted batch per kind.
const (
	clusterOps    = 64
	clusterWindow = 256
	// clusterSampleEvery is the telemetry sampling period of the clustered
	// and churn rows (the uniform rows record exactly, period 1).
	clusterSampleEvery = 32
	// churnSpan is the per-thread key span of the churn rows: thread t
	// cycles insert(k); delete(k) over [t*churnSpan, (t+1)*churnSpan), so
	// every insert (re)builds a node and every delete retires one — the
	// workload EBR-backed recycling exists for.
	churnSpan = 32
	// churnWarmupOps per thread run before a churn row's measured window
	// opens, so the retire→drain→free-list pipeline reaches steady state
	// (allocs_per_op then measures recycling, not pipeline fill).
	churnWarmupOps = 4096
)

// benchConfig is one measured row.
type benchConfig struct {
	impl      string
	threads   int
	shards    int // fr-sharded only; 0 elsewhere
	keyRange  int
	ops       int
	clustered bool
	// spread draws a clustered row's runs from the whole key range instead
	// of a clusterWindow-wide window: same mix, same run length, but the
	// keys of a run are unclustered — the row reports as "uniform".
	spread bool
	batch  int // 0 = per-key; else the batch length (clustered only)
	// churn selects the insert-after-delete workload; recycle is its
	// on/off pair knob (EBR-backed node recycling).
	churn   bool
	recycle bool
}

func (c benchConfig) workload() string {
	if c.churn {
		return "churn"
	}
	if c.clustered && !c.spread {
		return "clustered"
	}
	return "uniform"
}

// clusteredMix is the op mix of the clustered rows; runClusteredThread's
// j%10 switch implements it.
var clusteredMix = workload.Mix{SearchPct: 80, InsertPct: 10, DeletePct: 10}

// churnMix is the op mix of the churn rows: pure insert-after-delete.
var churnMix = workload.Mix{InsertPct: 50, DeletePct: 50}

func (c benchConfig) sampleEvery() int {
	if c.clustered || c.churn {
		return clusterSampleEvery
	}
	return 1
}

func (c benchConfig) mix() workload.Mix {
	if c.churn {
		return churnMix
	}
	if c.clustered {
		return clusteredMix
	}
	return workload.Balanced
}

// runBenchJSON measures every configuration, writes the JSON file, and
// returns a human-readable summary table.
func runBenchJSON(path string, quick bool) (string, error) {
	impls := []string{"fr-list", "fr-skiplist"}
	threads := []int{1, 2, 4}
	keyRange, ops := 1024, 200_000
	if quick {
		threads = []int{1, 2}
		keyRange, ops = 256, 20_000
	}

	var cfgs []benchConfig
	for _, impl := range impls {
		// Lists walk every node: keep the full range but trim ops so the
		// fr-list rows finish in comparable time.
		implOps := ops
		if impl == "fr-list" && !quick {
			implOps = ops / 4
		}
		for _, th := range threads {
			cfgs = append(cfgs, benchConfig{impl: impl, threads: th, keyRange: keyRange, ops: implOps})
		}
		// The clustered pairs: per-key baseline, then the same key stream
		// through the batch API (same seeds, so identical keys per thread).
		// The skip list runs at its natural depth - with only 2^10 keys the
		// from-top descent is so short that the finger's savings drown in
		// constant per-op overhead; the list keeps the small range, where a
		// from-head walk is already hundreds of steps.
		clRange := keyRange
		if impl == "fr-skiplist" {
			clRange = 65536
			if quick {
				clRange = 8192
			}
		}
		for _, th := range threads {
			for _, batch := range []int{0, clusterOps} {
				cfgs = append(cfgs, benchConfig{
					impl: impl, threads: th, keyRange: clRange, ops: implOps,
					clustered: true, batch: batch,
				})
			}
		}
		// The other end of the gap range: the same runs drawn from the
		// whole key range, so a batch's keys sit ~keyRange/clusterOps
		// apart. The finger's O(log gap) resume must keep the batch row at
		// or above the per-key one here too.
		if impl == "fr-skiplist" {
			for _, batch := range []int{0, clusterOps} {
				cfgs = append(cfgs, benchConfig{
					impl: impl, threads: 1, keyRange: clRange, ops: implOps,
					clustered: true, spread: true, batch: batch,
				})
			}
		}
		// The churn pairs: insert-after-delete over a small per-thread key
		// span, once allocating every node (the control) and once with
		// EBR-backed recycling — the allocs_per_op pair is the headline
		// number of the recycling work (§2.1): at steady state the recycle
		// row's inserts are served from the free lists.
		for _, th := range threads {
			for _, recycle := range []bool{false, true} {
				cfgs = append(cfgs, benchConfig{
					impl: impl, threads: th, keyRange: th * churnSpan,
					ops: implOps, churn: true, recycle: recycle,
				})
			}
		}
	}

	// The sharded sweep: the range-partitioned map over 1 (the routing-
	// overhead control), 4 and 8 skip-list shards on the read-heavy
	// clustered mix, per-key and batched. The key range matches the
	// skip list's clustered rows so the fr-sharded rows are directly
	// comparable to the single-skip-list baseline above.
	shardCounts, shardThreads, shardRange := []int{1, 4, 8}, []int{1, 4}, 65536
	if quick {
		shardCounts, shardThreads, shardRange = []int{1, 4}, []int{1, 2}, 8192
	}
	for _, sc := range shardCounts {
		for _, th := range shardThreads {
			for _, batch := range []int{0, clusterOps} {
				cfgs = append(cfgs, benchConfig{
					impl: "fr-sharded", threads: th, shards: sc,
					keyRange: shardRange, ops: ops,
					clustered: true, batch: batch,
				})
			}
		}
	}
	// The uniform pair for the sharded map: every batch splits into four
	// sub-runs, run inline one after the other.
	for _, batch := range []int{0, clusterOps} {
		cfgs = append(cfgs, benchConfig{
			impl: "fr-sharded", threads: 1, shards: 4,
			keyRange: shardRange, ops: ops,
			clustered: true, spread: true, batch: batch,
		})
	}

	out := benchJSON{
		Schema:     "lflbench/v1",
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Quick:      quick,
	}
	text := fmt.Sprintf("== bench: instrumented throughput (mix=%s uniform / %s clustered / %s churn, ops=%d) ==\n",
		workload.Balanced, clusteredMix, churnMix, ops)
	text += fmt.Sprintf("%-12s %-10s %6s %6s %8s %10s %14s %10s %10s %12s %12s\n",
		"impl", "workload", "shards", "batch", "threads", "Mops/s", "ess.steps/op", "allocs/op", "B/op", "get p50", "get p99")
	for _, cfg := range cfgs {
		row, err := benchOne(cfg)
		if err != nil {
			return "", err
		}
		out.Benchmarks = append(out.Benchmarks, row)
		// The churn rows have no reads; show the insert quantiles there.
		g, wl := row.Latency["get"], row.Workload
		if row.Workload == "churn" {
			g = row.Latency["insert"]
			if row.Recycle {
				wl += "+rec"
			}
		}
		text += fmt.Sprintf("%-12s %-10s %6d %6d %8d %10.3f %14.1f %10.3f %10.1f %12s %12s\n",
			row.Impl, wl, row.Shards, row.Batch, row.Threads, row.OpsPerSec/1e6, row.EssentialStepsPerOp,
			row.AllocsPerOp, row.BytesPerOp,
			time.Duration(g.P50NS), time.Duration(g.P99NS))
	}

	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return "", err
	}
	text += fmt.Sprintf("wrote %s\n", path)
	return text, nil
}

// benchOne runs one instrumented configuration and reads its metrics back
// out of the telemetry snapshot.
func benchOne(cfg benchConfig) (benchRow, error) {
	tel, err := newBenchTelemetry(fmt.Sprintf("bench-%s-%s-%d-%d-%d",
		cfg.impl, cfg.workload(), cfg.shards, cfg.batch, cfg.threads), cfg.sampleEvery())
	if err != nil {
		return benchRow{}, err
	}
	defer tel.Unregister()
	d := newBenchDict(cfg, tel)
	if cfg.churn {
		// Warm up the retire→drain→free-list pipeline so the measured
		// window sees steady state: with recycling on, the free lists are
		// stocked and inserts stop allocating; with it off, this is just
		// extra churn on the same keys.
		warm := min(churnWarmupOps, cfg.ops/2)
		for t := 0; t < cfg.threads; t++ {
			runChurnThread(d, t, warm)
		}
		d.reclaim()
	} else {
		for _, k := range workload.Prefill(cfg.keyRange) {
			d.insert(k)
		}
	}
	tel.Delta() // reset the delta baseline: exclude prefill from the measured window

	perThread := cfg.ops / cfg.threads
	start := make(chan struct{})
	var wg sync.WaitGroup
	for t := 0; t < cfg.threads; t++ {
		wg.Add(1)
		if cfg.churn {
			go func(t int) {
				defer wg.Done()
				<-start
				runChurnThread(d, t, perThread)
			}(t)
			continue
		}
		if cfg.clustered {
			go func(t int) {
				defer wg.Done()
				<-start
				runClusteredThread(d, cfg, t, perThread)
			}(t)
			continue
		}
		// Generators are built before the measured window opens so their
		// allocations stay out of the allocs/op accounting.
		gen := workload.NewGenerator(workload.Config{
			Mix: workload.Balanced, Dist: workload.Uniform, Range: cfg.keyRange, Seed: 11,
		}, t)
		go func(gen *workload.Generator) {
			defer wg.Done()
			<-start
			for i := 0; i < perThread; i++ {
				op := gen.Next()
				switch op.Kind {
				case workload.OpInsert:
					d.insert(op.Key)
				case workload.OpDelete:
					d.remove(op.Key)
				default:
					d.contains(op.Key)
				}
			}
		}(gen)
	}
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	begin := time.Now()
	close(start)
	wg.Wait()
	elapsed := time.Since(begin)
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)

	s := tel.Delta()
	row := benchRow{
		Impl:                cfg.impl,
		Threads:             cfg.threads,
		Shards:              cfg.shards,
		Mix:                 cfg.mix().String(),
		KeyRange:            cfg.keyRange,
		Workload:            cfg.workload(),
		Batch:               cfg.batch,
		Recycle:             cfg.recycle,
		SampleEvery:         cfg.sampleEvery(),
		Ops:                 perThread * cfg.threads,
		OpsPerSec:           float64(perThread*cfg.threads) / elapsed.Seconds(),
		EssentialStepsPerOp: s.EssentialStepsPerOp(),
		AllocsPerOp:         float64(m1.Mallocs-m0.Mallocs) / float64(perThread*cfg.threads),
		BytesPerOp:          float64(m1.TotalAlloc-m0.TotalAlloc) / float64(perThread*cfg.threads),
		Counters:            map[string]uint64{},
		Latency:             map[string]latencyNS{},
	}
	for i, v := range s.Counters.Vector() {
		row.Counters[instrument.CounterNames[i]] = v
	}
	for op := ltel.Op(0); op < ltel.NumOps; op++ {
		o := s.Ops[op]
		if o.Count == 0 {
			continue
		}
		l := latencyNS{Count: o.Count, MeanNS: o.Latency.Mean()}
		l.P50NS, _ = o.Latency.Quantile(0.50)
		l.P99NS, _ = o.Latency.Quantile(0.99)
		row.Latency[op.String()] = l
	}
	return row, nil
}

// runChurnThread drives one worker of a churn row: thread t owns the
// disjoint key span [t*churnSpan, (t+1)*churnSpan) and cycles through
// inserting the whole span then deleting it, so every insert constructs a
// node (or tower), every delete retires one, and the structure keeps a
// live population for the traversals to walk. Disjoint spans keep the
// churn free of cross-thread key conflicts: the measured contention is on
// the structure fabric and the reclamation machinery, which is what the
// recycle on/off pair isolates.
func runChurnThread(d benchDict, t, perThread int) {
	base := t * churnSpan
	for i := 0; i < perThread; i++ {
		j := i % (2 * churnSpan)
		if j < churnSpan {
			d.insert(base + j)
		} else {
			d.remove(base + j - churnSpan)
		}
	}
}

// runClusteredThread drives one worker of a clustered row: sorted runs of
// clusterOps keys inside a random clusterWindow-wide window, with the
// read-heavy clusteredMix (locality of reference is above all a read
// pattern - scans, joins, working-set lookups). Per-key and batch rows
// share the per-thread seeds, so both judge the exact same key stream; the
// batch mode only changes how the keys are issued — one sorted batch per
// kind per cluster, threaded by a finger inside the structure.
func runClusteredThread(d benchDict, cfg benchConfig, t, perThread int) {
	rng := rand.New(rand.NewPCG(uint64(t)+1, 29))
	window := min(clusterWindow, cfg.keyRange)
	if cfg.spread {
		window = cfg.keyRange
	}
	ins := make([]core.KV[int, int], 0, clusterOps)
	dels := make([]int, 0, clusterOps)
	gets := make([]int, 0, clusterOps)
	for done := 0; done < perThread; {
		base := int(rng.Uint64N(uint64(cfg.keyRange - window + 1)))
		n := min(clusterOps, perThread-done)
		if cfg.batch == 0 {
			for j := 0; j < n; j++ {
				k := base + int(rng.Uint64N(uint64(window)))
				switch j % 10 {
				case 0:
					d.insert(k)
				case 1:
					d.remove(k)
				default:
					d.contains(k)
				}
			}
		} else {
			ins, dels, gets = ins[:0], dels[:0], gets[:0]
			for j := 0; j < n; j++ {
				k := base + int(rng.Uint64N(uint64(window)))
				switch j % 10 {
				case 0:
					ins = append(ins, core.KV[int, int]{Key: k, Value: k})
				case 1:
					dels = append(dels, k)
				default:
					gets = append(gets, k)
				}
			}
			d.insertBatch(ins)
			d.removeBatch(dels)
			d.containsBatch(gets)
		}
		done += n
	}
}

// newBenchTelemetry registers a fresh exact-recording instance and
// publishes it to expvar, recovering from a name collision (e.g. reruns
// inside one test process — expvar names are permanent) by suffixing.
func newBenchTelemetry(name string, every int) (t *ltel.Telemetry, err error) {
	for i := 0; i < 16; i++ {
		n := name
		if i > 0 {
			n = fmt.Sprintf("%s-%d", name, i)
		}
		if t = tryNewTelemetry(n, every); t != nil {
			return t, nil
		}
	}
	return nil, fmt.Errorf("could not register telemetry instance %q", name)
}

func tryNewTelemetry(name string, every int) (t *ltel.Telemetry) {
	defer func() {
		if recover() != nil {
			if t != nil {
				t.Unregister()
			}
			t = nil
		}
	}()
	t = ltel.New(name, ltel.WithSampleEvery(every))
	t.PublishExpvar()
	return t
}
