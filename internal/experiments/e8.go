package experiments

import (
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/heights"
	"repro/internal/instrument"
	"repro/internal/lockbased"
)

// E8 measures delay-robustness, the property the paper's introduction
// leads with: "if an implementation is lock-free, delays or failures of
// individual processes do not block the progress of other processes".
//
// One process is frozen in the middle of a deletion (for the lock-free
// skip list: parked between its marking and physical-deletion C&S; for
// the locked skip list: holding the write lock) and the experiment counts
// how many operations the remaining workers complete during the stall
// window. Unlike throughput scaling, this experiment is meaningful even
// on a single CPU.
type E8Result struct {
	Rows []E8Row
}

// E8Row is one implementation's progress during the stall.
type E8Row struct {
	Impl         string
	Workers      int
	StallMs      int
	OpsDuring    int64 // operations completed by the other workers while one is stalled
	StalledFinal bool  // the stalled operation itself eventually completed correctly
}

// E8Config parameterizes the experiment.
type E8Config struct {
	Workers  int
	Stall    time.Duration
	KeyRange int
	Seed     uint64
}

// DefaultE8Config returns the configuration used by the harness.
func DefaultE8Config() E8Config {
	return E8Config{Workers: 4, Stall: 100 * time.Millisecond, KeyRange: 1024, Seed: 41}
}

// RunE8 runs the stall experiment on the FR skip list and the locked skip
// list.
func RunE8(cfg E8Config) E8Result {
	return E8Result{Rows: []E8Row{runE8FR(cfg), runE8Locked(cfg)}}
}

// runE8FR freezes a deleter between its marking C&S and its physical-
// deletion C&S; helping lets every other operation proceed.
func runE8FR(cfg E8Config) E8Row {
	l := core.NewSkipList[int, int]()
	for k := 0; k < cfg.KeyRange; k += 2 {
		l.Insert(nil, k, k)
	}
	ctl := adversary.NewController()
	const stalledPid = 999
	ctl.PauseAt(stalledPid, instrument.PtBeforePhysicalCAS)
	victimKey := cfg.KeyRange / 2
	stalledDone := make(chan bool, 1)
	go func() {
		_, ok := l.Delete(&core.Proc{ID: stalledPid, Hooks: ctl.HooksFor()}, victimKey)
		stalledDone <- ok
	}()
	ctl.AwaitParked(stalledPid, instrument.PtBeforePhysicalCAS)

	ops := runE8Workers(cfg, func(op, k int) {
		switch op {
		case 0:
			l.Insert(nil, k, k)
		case 1:
			l.Delete(nil, k)
		default:
			l.Search(nil, k)
		}
	}, func() {
		ctl.ClearAllPauses()
		ctl.Release(stalledPid)
	})
	ok := <-stalledDone
	return E8Row{Impl: "fr-skiplist", Workers: cfg.Workers,
		StallMs: int(cfg.Stall.Milliseconds()), OpsDuring: ops, StalledFinal: ok}
}

// runE8Locked freezes a writer inside the critical section.
func runE8Locked(cfg E8Config) E8Row {
	l := lockbased.NewSkipList[int, int](0, heights.DefaultSeed)
	for k := 0; k < cfg.KeyRange; k += 2 {
		l.Insert(k, k)
	}
	holding := make(chan struct{})
	release := make(chan struct{})
	go func() {
		l.Locked(func() {
			close(holding)
			<-release
		})
	}()
	<-holding

	ops := runE8Workers(cfg, func(op, k int) {
		switch op {
		case 0:
			l.Insert(k, k)
		case 1:
			l.Delete(k)
		default:
			l.Contains(k)
		}
	}, func() {
		close(release) // let the blocked workers drain so they can observe stop
	})
	return E8Row{Impl: "locked-skiplist", Workers: cfg.Workers,
		StallMs: int(cfg.Stall.Milliseconds()), OpsDuring: ops, StalledFinal: true}
}

// runE8Workers runs the worker pool for the stall window and returns the
// number of operations completed within it. The count is snapshotted at
// the end of the window, before unstall releases the frozen process (so
// workers blocked behind a lock can drain and exit).
func runE8Workers(cfg E8Config, do func(op, k int), unstall func()) int64 {
	var ops atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(cfg.Seed, uint64(w)))
			for !stop.Load() {
				do(int(rng.Uint64N(3)), int(rng.Uint64N(uint64(cfg.KeyRange))))
				ops.Add(1)
			}
		}(w)
	}
	time.Sleep(cfg.Stall)
	stop.Store(true)
	window := ops.Load()
	unstall()
	wg.Wait()
	return window
}

// Render prints the robustness table.
func (r E8Result) Render() string {
	t := Table{
		Title: "E8: progress while one process is stalled mid-update",
		Columns: []string{"impl", "workers", "stall (ms)",
			"ops completed by others", "stalled op finished correctly"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Impl, d(row.Workers), d(row.StallMs),
			fmt2("%d", row.OpsDuring), fmt2("%t", row.StalledFinal))
	}
	t.Notes = append(t.Notes,
		"lock-free: helping completes the stalled deletion, everyone proceeds;",
		"locks: every operation blocks behind the stalled critical section")
	return t.Render()
}
