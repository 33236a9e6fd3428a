package main

import (
	"runtime"
	"sync/atomic"
	"syscall"
	"time"
)

// windows is the number of measurement windows of every workload; a
// metric's value is the median over them.
const windows = 6

// clients is T of the sizing rule: min(nproc, 4) goroutines/connections.
func clients() int { return min(runtime.NumCPU(), 4) }

// probeSample is the state of the system under test at one window
// boundary; a window's figures are the differences of two samples.
type probeSample struct {
	t            time.Time
	ops          uint64  // operations completed by all clients
	cpu          float64 // CPU seconds used by the system under test
	mallocs      uint64  // heap allocations made by the system under test
	syscr, syscw uint64  // read and write syscalls of the system under test
}

// windowClock tells the clients which window is running: -1 while warming
// up, 0..n-1 while measuring, n once they must stop.
type windowClock struct{ cur atomic.Int32 }

func newWindowClock() *windowClock {
	c := &windowClock{}
	c.cur.Store(-1)
	return c
}

func (c *windowClock) window() int { return int(c.cur.Load()) }

// run sleeps through the warm-up and n windows, sampling probe at every
// boundary and advancing the clock, and returns the n+1 samples. Oversleep
// does not matter: a window is as long as its two samples say it is.
func (c *windowClock) run(warm, win time.Duration, n int, probe func() probeSample) []probeSample {
	samples := make([]probeSample, 0, n+1)
	start := time.Now()
	for i := 0; i <= n; i++ {
		time.Sleep(time.Until(start.Add(warm + time.Duration(i)*win)))
		samples = append(samples, probe())
		c.cur.Store(int32(i))
	}
	return samples
}

// sizing is how long a workload measures and how often it sets up: the
// untraced run takes the driver's seconds and three set-ups, the short
// untraced part of a traced run a third of the seconds and one set-up.
type sizing struct {
	seconds   float64
	setupReps int
}

// windowSplit divides a run of the given length into a warm-up of a tenth
// and n equal windows.
func windowSplit(seconds float64, n int) (warm, win time.Duration) {
	total := time.Duration(seconds * float64(time.Second))
	warm = total / 10
	return warm, (total - warm) / time.Duration(n)
}

// windowRates turns boundary samples into per-window figures and returns
// the median over windows of each.
type windowRates struct {
	throughput  float64 // ops per second
	cpuUsPerOp  float64
	allocsPerOp float64
	syscrPerOp  float64
	syscwPerOp  float64
	ops         uint64    // total over all windows
	perWindow   []float64 // throughput of each window, for the run's notes
}

func rates(samples []probeSample) windowRates {
	var tput, cpu, allocs, scr, scw []float64
	for i := 1; i < len(samples); i++ {
		a, b := samples[i-1], samples[i]
		ops := float64(b.ops - a.ops)
		if ops == 0 {
			ops = 1
		}
		tput = append(tput, ops/b.t.Sub(a.t).Seconds())
		cpu = append(cpu, (b.cpu-a.cpu)*1e6/ops)
		allocs = append(allocs, float64(b.mallocs-a.mallocs)/ops)
		scr = append(scr, float64(b.syscr-a.syscr)/ops)
		scw = append(scw, float64(b.syscw-a.syscw)/ops)
	}
	return windowRates{
		throughput:  median(tput),
		cpuUsPerOp:  median(cpu),
		allocsPerOp: median(allocs),
		syscrPerOp:  median(scr),
		syscwPerOp:  median(scw),
		ops:         samples[len(samples)-1].ops - samples[0].ops,
		perWindow:   tput,
	}
}

// paddedCounter is one client's completed-op count on its own cache line.
type paddedCounter struct {
	n atomic.Uint64
	_ [56]byte
}

func sumCounters(cs []paddedCounter) uint64 {
	var s uint64
	for i := range cs {
		s += cs[i].n.Load()
	}
	return s
}

// selfCPU returns the CPU seconds (user + system) this process has used.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// selfMallocs returns this process's cumulative heap allocation count.
func selfMallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// heapLive returns the bytes of live heap objects after a full collection.
func heapLive() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// medianSetup runs setup at least minReps times, and on until minTotal has
// been spent (at most maxReps times), and returns the median duration in
// seconds. Every run but the last is torn down by discard.
func medianSetup(minReps, maxReps int, minTotal time.Duration, setup func() (time.Duration, error), discard func()) (float64, error) {
	var secs []float64
	var total time.Duration
	for i := 0; i < maxReps && (i < minReps || total < minTotal); i++ {
		if i > 0 {
			discard()
		}
		d, err := setup()
		if err != nil {
			return 0, err
		}
		secs = append(secs, d.Seconds())
		total += d
	}
	return median(secs), nil
}
