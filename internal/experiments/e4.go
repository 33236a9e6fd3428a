package experiments

import (
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/harris"
	"repro/internal/heights"
	"repro/internal/lockbased"
	"repro/internal/noflag"
	"repro/internal/sundell"
	"repro/internal/valois"
	"repro/internal/workload"
)

// E4 is the throughput comparison implied by the paper's practicality
// claims and the experimental methodology of the work it cites (Harris
// 2001, Michael 2002): operations per second across thread counts,
// operation mixes, and key ranges, for every list implementation in the
// repository plus the lock-based strawman.
type E4Result struct {
	Rows []E4Row
}

// E4Row is one measured configuration.
type E4Row struct {
	Impl      string
	Threads   int
	Mix       workload.Mix
	KeyRange  int
	OpsPerSec float64
}

// E4Config parameterizes the sweep.
type E4Config struct {
	Impls     []string // subset of E4Impls; nil means all
	Threads   []int
	Mixes     []workload.Mix
	KeyRanges []int
	Ops       int // total operations per configuration
	Seed      uint64
}

// E4Impls lists the implementations the experiment knows how to drive.
var E4Impls = []string{
	"fr-list", "harris-list", "valois-list", "noflag-list", "locked-list",
	"fr-skiplist", "harris-skiplist", "sundell-skiplist", "locked-skiplist",
}

// DefaultE4Config returns the configuration used by the harness. Thread
// counts are deduplicated (on small machines the NumCPU-derived entries
// collide with the fixed ones).
func DefaultE4Config() E4Config {
	nc := runtime.NumCPU()
	seen := map[int]bool{}
	var threads []int
	for _, t := range []int{1, 2, 4, max(nc/2, 4), 2 * nc} {
		if !seen[t] {
			seen[t] = true
			threads = append(threads, t)
		}
	}
	return E4Config{
		Threads:   threads,
		Mixes:     []workload.Mix{workload.ReadHeavy, workload.Balanced, workload.WriteHeavy},
		KeyRanges: []int{256, 4096},
		Ops:       200_000,
		Seed:      11,
	}
}

// Dict adapts every implementation to a common operation set.
type Dict interface {
	insert(k int) bool
	remove(k int) bool
	contains(k int) bool
}

type frListDict struct{ l *core.List[int, int] }

func (d frListDict) insert(k int) bool   { _, ok := d.l.Insert(nil, k, k); return ok }
func (d frListDict) remove(k int) bool   { _, ok := d.l.Delete(nil, k); return ok }
func (d frListDict) contains(k int) bool { return d.l.Search(nil, k) != nil }

type harrisListDict struct{ l *harris.List[int, int] }

func (d harrisListDict) insert(k int) bool   { _, ok := d.l.Insert(nil, k, k); return ok }
func (d harrisListDict) remove(k int) bool   { _, ok := d.l.Delete(nil, k); return ok }
func (d harrisListDict) contains(k int) bool { return d.l.Search(nil, k) != nil }

type valoisListDict struct{ l *valois.List[int, int] }

func (d valoisListDict) insert(k int) bool   { return d.l.Insert(nil, k, k) }
func (d valoisListDict) remove(k int) bool   { return d.l.Delete(nil, k) }
func (d valoisListDict) contains(k int) bool { return d.l.Contains(nil, k) }

type noflagListDict struct{ l *noflag.List[int, int] }

func (d noflagListDict) insert(k int) bool   { _, ok := d.l.Insert(nil, k, k); return ok }
func (d noflagListDict) remove(k int) bool   { _, ok := d.l.Delete(nil, k); return ok }
func (d noflagListDict) contains(k int) bool { return d.l.Search(nil, k) != nil }

type lockedListDict struct{ l *lockbased.List[int, int] }

func (d lockedListDict) insert(k int) bool   { return d.l.Insert(k, k) }
func (d lockedListDict) remove(k int) bool   { return d.l.Delete(k) }
func (d lockedListDict) contains(k int) bool { return d.l.Contains(k) }

type frSkipDict struct{ l *core.SkipList[int, int] }

func (d frSkipDict) insert(k int) bool   { _, ok := d.l.Insert(nil, k, k); return ok }
func (d frSkipDict) remove(k int) bool   { _, ok := d.l.Delete(nil, k); return ok }
func (d frSkipDict) contains(k int) bool { return d.l.Search(nil, k) != nil }

type harrisSkipDict struct{ l *harris.SkipList[int, int] }

func (d harrisSkipDict) insert(k int) bool   { return d.l.Insert(nil, k, k) }
func (d harrisSkipDict) remove(k int) bool   { return d.l.Delete(nil, k) }
func (d harrisSkipDict) contains(k int) bool { return d.l.Contains(nil, k) }

type sundellSkipDict struct{ l *sundell.SkipList[int, int] }

func (d sundellSkipDict) insert(k int) bool   { return d.l.Insert(nil, k, k) }
func (d sundellSkipDict) remove(k int) bool   { return d.l.Delete(nil, k) }
func (d sundellSkipDict) contains(k int) bool { return d.l.Contains(nil, k) }

type lockedSkipDict struct{ l *lockbased.SkipList[int, int] }

func (d lockedSkipDict) insert(k int) bool   { return d.l.Insert(k, k) }
func (d lockedSkipDict) remove(k int) bool   { return d.l.Delete(k) }
func (d lockedSkipDict) contains(k int) bool { return d.l.Contains(k) }

// NewDict constructs a fresh instance of the named implementation.
func NewDict(impl string) Dict {
	switch impl {
	case "fr-list":
		return frListDict{core.NewList[int, int]()}
	case "harris-list":
		return harrisListDict{harris.NewList[int, int]()}
	case "valois-list":
		return valoisListDict{valois.NewList[int, int]()}
	case "noflag-list":
		return noflagListDict{noflag.NewList[int, int]()}
	case "locked-list":
		return lockedListDict{lockbased.NewList[int, int]()}
	case "fr-skiplist":
		return frSkipDict{core.NewSkipList[int, int]()}
	case "harris-skiplist":
		return harrisSkipDict{harris.NewSkipList[int, int](0, heights.DefaultSeed)}
	case "sundell-skiplist":
		return sundellSkipDict{sundell.New[int, int](0, heights.DefaultSeed)}
	case "locked-skiplist":
		return lockedSkipDict{lockbased.NewSkipList[int, int](0, heights.DefaultSeed)}
	default:
		panic("unknown implementation " + impl)
	}
}

// RunE4 measures throughput for every configuration.
func RunE4(cfg E4Config) E4Result {
	impls := cfg.Impls
	if impls == nil {
		impls = E4Impls
	}
	var res E4Result
	for _, impl := range impls {
		for _, kr := range cfg.KeyRanges {
			for _, mix := range cfg.Mixes {
				for _, th := range cfg.Threads {
					res.Rows = append(res.Rows, E4Row{
						Impl: impl, Threads: th, Mix: mix, KeyRange: kr,
						OpsPerSec: MeasureThroughput(impl, th, mix, kr, cfg.Ops, cfg.Seed),
					})
				}
			}
		}
	}
	return res
}

// MeasureThroughput runs one configuration and returns operations/second.
func MeasureThroughput(impl string, threads int, mix workload.Mix, keyRange, ops int, seed uint64) float64 {
	d := NewDict(impl)
	for _, k := range workload.Prefill(keyRange) {
		d.insert(k)
	}
	perThread := ops / threads
	var wg sync.WaitGroup
	start := make(chan struct{})
	begin := time.Now()
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			gen := workload.NewGenerator(workload.Config{
				Mix: mix, Dist: workload.Uniform, Range: keyRange, Seed: seed,
			}, t)
			<-start
			for i := 0; i < perThread; i++ {
				ApplyOp(d, gen.Next())
			}
		}(t)
	}
	close(start)
	wg.Wait()
	elapsed := time.Since(begin)
	return float64(perThread*threads) / elapsed.Seconds()
}

// ApplyOp applies one generated workload operation to a dictionary.
func ApplyOp(d Dict, op workload.Op) {
	switch op.Kind {
	case workload.OpInsert:
		d.insert(op.Key)
	case workload.OpDelete:
		d.remove(op.Key)
	default:
		d.contains(op.Key)
	}
}

// Render prints the throughput table grouped by key range and mix.
func (r E4Result) Render() string {
	t := Table{
		Title:   "E4: throughput (operations/second)",
		Columns: []string{"impl", "range", "mix", "threads", "Mops/s"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Impl, d(row.KeyRange), row.Mix.String(), d(row.Threads),
			fmt2("%.3f", row.OpsPerSec/1e6))
	}
	return t.Render()
}
