package lockfree

import (
	"sync"
	"testing"

	"repro/lockfree/telemetry"
)

// TestWithTelemetryEndToEnd drives telemetry-enabled structures through a
// concurrent workload and checks the live metrics describe it: operation
// counts are exact, every operation contributed a latency sample, and the
// hot-path counters (C&S attempts, search pointer updates) are nonzero.
func TestWithTelemetryEndToEnd(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func(tel *telemetry.Telemetry) Map[int, int]
	}{
		{"list", func(tel *telemetry.Telemetry) Map[int, int] {
			return NewList[int, int](WithTelemetry(tel))
		}},
		{"skiplist", func(tel *telemetry.Telemetry) Map[int, int] {
			return NewSkipList[int, int](WithTelemetry(tel))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Sample every operation so the histogram assertions are exact.
			tel := telemetry.New("e2e-"+tc.name, telemetry.WithSampleEvery(1))
			defer tel.Unregister()
			m := tc.build(tel)

			const workers = 4
			const perWorker = 500
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < perWorker; i++ {
						k := (w*perWorker + i) % 64 // small range: contention
						switch i % 3 {
						case 0:
							m.Insert(k, k)
						case 1:
							m.Get(k)
						default:
							m.Delete(k)
						}
					}
				}(w)
			}
			wg.Wait()

			s := tel.Snapshot()
			total := workers * perWorker
			if got := s.TotalOps(); got != uint64(total) {
				t.Fatalf("TotalOps = %d, want %d", got, total)
			}
			// i%3 splits 500 ops as insert:167 get:167 delete:166 per worker.
			if s.Ops[telemetry.OpInsert].Count != 4*167 ||
				s.Ops[telemetry.OpGet].Count != 4*167 ||
				s.Ops[telemetry.OpDelete].Count != 4*166 {
				t.Fatalf("per-op counts: ins=%d get=%d del=%d",
					s.Ops[telemetry.OpInsert].Count, s.Ops[telemetry.OpGet].Count,
					s.Ops[telemetry.OpDelete].Count)
			}
			if s.Counters.CASAttempts == 0 || s.Counters.CASSuccesses == 0 {
				t.Fatalf("no C&S recorded: %+v", s.Counters)
			}
			if s.Counters.CurrUpdates == 0 {
				t.Fatalf("no search steps recorded: %+v", s.Counters)
			}
			if s.Counters.Restarts != 0 || s.Counters.AuxTraversals != 0 {
				t.Fatalf("FR structures must not restart or use aux cells: %+v", s.Counters)
			}
			// Every completed op left exactly one latency sample.
			for op := telemetry.Op(0); op < telemetry.NumOps; op++ {
				var lat uint64
				for _, c := range s.Ops[op].Latency.Buckets {
					lat += c
				}
				if lat != s.Ops[op].Count {
					t.Fatalf("op %v: %d latency samples for %d ops", op, lat, s.Ops[op].Count)
				}
			}
			// Iteration records under OpAscend.
			m.Ascend(func(k, v int) bool { return true })
			if got := tel.Snapshot().Ops[telemetry.OpAscend].Count; got != 1 {
				t.Fatalf("ascend count = %d", got)
			}
		})
	}
}

// TestWithTelemetryOnEveryConstructor checks the option is honored by all
// five public constructors.
func TestWithTelemetryOnEveryConstructor(t *testing.T) {
	tel := telemetry.New("ctors", telemetry.WithSampleEvery(1))
	defer tel.Unregister()

	NewList[int, int](WithTelemetry(tel)).Insert(1, 1)
	NewSkipList[int, int](WithTelemetry(tel)).Insert(1, 1)
	NewListFunc[int, int](func(a, b int) int { return a - b }, WithTelemetry(tel)).Insert(1, 1)
	NewSkipListFunc[int, int](func(a, b int) int { return a - b }, WithTelemetry(tel)).Insert(1, 1)
	q := NewPriorityQueue[int, string](WithTelemetry(tel))
	q.Push(3, "x")

	s := tel.Snapshot()
	if got := s.Ops[telemetry.OpInsert].Count; got != 5 {
		t.Fatalf("insert count across constructors = %d, want 5", got)
	}
	if s.Counters.CASSuccesses < 5 {
		t.Fatalf("CAS successes = %d", s.Counters.CASSuccesses)
	}
}

// TestTelemetrySharedBetweenStructures: one Telemetry attached to two
// structures sums their activity.
func TestTelemetrySharedBetweenStructures(t *testing.T) {
	tel := telemetry.New("shared")
	defer tel.Unregister()
	a := NewList[int, int](WithTelemetry(tel))
	b := NewSkipList[int, int](WithTelemetry(tel))
	a.Insert(1, 1)
	b.Insert(2, 2)
	if got := tel.Snapshot().Ops[telemetry.OpInsert].Count; got != 2 {
		t.Fatalf("shared insert count = %d", got)
	}
}

// TestTelemetryDefaultSampling pins the default histogram sampling: counts
// and counters are exact, latency samples arrive one in every 16 ops
// (deterministic on a single shard driven serially).
func TestTelemetryDefaultSampling(t *testing.T) {
	tel := telemetry.New("sampled")
	defer tel.Unregister()
	m := NewSkipList[int, int](WithTelemetry(tel))
	const ops = 200
	for i := 0; i < ops; i++ {
		m.Insert(i, i)
	}
	s := tel.Snapshot()
	ins := s.Ops[telemetry.OpInsert]
	if ins.Count != ops {
		t.Fatalf("count = %d, want %d (counts must stay exact under sampling)", ins.Count, ops)
	}
	// Step counters are scaled estimates from the sampled ops: nonzero, and
	// multiples of the period.
	if s.Counters.CASSuccesses == 0 || s.Counters.CASSuccesses%16 != 0 {
		t.Fatalf("scaled counter estimate wrong: %+v", s.Counters)
	}
	if got, want := ins.Latency.Count, uint64(ops/16); got != want {
		t.Fatalf("latency samples = %d, want %d (1 in 16 of %d)", got, want, ops)
	}
	if got := ins.Retries.Count; got != uint64(ops/16) {
		t.Fatalf("retry samples = %d", got)
	}
}

// TestNoTelemetryRecordsNothing pins the opt-in contract.
func TestNoTelemetryRecordsNothing(t *testing.T) {
	tel := telemetry.New("control")
	defer tel.Unregister()
	m := NewSkipList[int, int]() // no WithTelemetry
	m.Insert(1, 1)
	m.Get(1)
	if got := tel.Snapshot().TotalOps(); got != 0 {
		t.Fatalf("unattached telemetry saw %d ops", got)
	}
}
