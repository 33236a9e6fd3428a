package instrument

import (
	"runtime"
	"sync"
	"testing"
)

// TestShardedInt64Quiescent checks that the striped counter is exact once
// all writers have joined, under concurrent mixed-sign adds.
func TestShardedInt64Quiescent(t *testing.T) {
	var c ShardedInt64
	c.Init()
	if c.Shards() == 0 {
		t.Fatal("Init left zero shards")
	}
	const workers = 8
	const perWorker = 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Add(1)
				if i%2 == 0 {
					c.Add(-1)
				}
			}
		}(w)
	}
	wg.Wait()
	want := int64(workers * perWorker / 2)
	if got := c.Load(); got != want {
		t.Fatalf("Load = %d, want %d", got, want)
	}
}

// TestShardedInt64AddDoesNotAllocate pins the zero-allocation contract of
// the hot path: Len maintenance must not reintroduce per-op allocations.
func TestShardedInt64AddDoesNotAllocate(t *testing.T) {
	var c ShardedInt64
	c.Init()
	if allocs := testing.AllocsPerRun(1000, func() { c.Add(1) }); allocs != 0 {
		t.Fatalf("Add allocates %v objects per call, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() { _ = c.Load() }); allocs != 0 {
		t.Fatalf("Load allocates %v objects per call, want 0", allocs)
	}
}

// TestShardedInt64LoadNeverDoubleCounts samples the counter while a known
// monotone workload runs: every observation must lie between 0 and the
// final total (a torn or double-counted read could exceed it).
func TestShardedInt64LoadNeverDoubleCounts(t *testing.T) {
	var c ShardedInt64
	c.Init()
	const workers = 4
	const perWorker = 20000
	const total = workers * perWorker
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Add(1)
			}
		}()
	}
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if n := c.Load(); n < 0 || n > total {
				t.Errorf("Load = %d outside [0, %d]", n, total)
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	sampler.Wait()
	if got := c.Load(); got != total {
		t.Fatalf("final Load = %d, want %d", got, total)
	}
}

// TestStripes pins the one stripe-count rule: rounded up to a power of
// two, capped at 256, twice GOMAXPROCS by default.
func TestStripes(t *testing.T) {
	for _, tc := range []struct{ n, want int }{{1, 1}, {3, 4}, {4, 4}, {200, 256}, {1 << 20, 256}} {
		if got := Stripes(tc.n); got != tc.want {
			t.Fatalf("Stripes(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
	if got, want := Stripes(0), Stripes(2*runtime.GOMAXPROCS(0)); got != want {
		t.Fatalf("Stripes(0) = %d, want %d", got, want)
	}
}
