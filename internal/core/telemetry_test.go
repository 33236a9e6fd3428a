package core

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// TestTelemetryMirrorsProcStats pins the no-divergence contract: when an
// operation runs with both an attached recorder (at sampling period 1,
// i.e. exact recording) and a caller-supplied Proc, the caller's OpStats
// and the recorder's counters see the exact same steps.
func TestTelemetryMirrorsProcStats(t *testing.T) {
	rec := telemetry.NewRecorder(1)
	rec.SetSampleEvery(1)
	l := NewList[int, int]()
	l.SetTelemetry(rec)
	if l.Telemetry() != rec {
		t.Fatal("Telemetry() accessor")
	}

	var outer OpStats
	p := &Proc{Stats: &outer}
	for k := 0; k < 50; k++ {
		l.Insert(p, k, k)
	}
	for k := 0; k < 50; k++ {
		l.Get(p, k)
	}
	for k := 0; k < 50; k++ {
		l.Delete(p, k)
	}
	s := rec.Snapshot()
	if s.Counters != outer {
		t.Fatalf("telemetry and Proc stats diverged:\n tel: %+v\nproc: %+v", s.Counters, outer)
	}
	if outer.CASAttempts == 0 || outer.CurrUpdates == 0 {
		t.Fatalf("workload recorded no steps: %+v", outer)
	}
	if got := s.TotalOps(); got != 150 {
		t.Fatalf("TotalOps = %d", got)
	}
}

// TestTelemetryCallerStatsExactUnderSampling: even at the default sampling
// period, a caller-supplied Proc's OpStats must be exact — unsampled ops
// write into it directly, sampled ones mirror the scratch back.
func TestTelemetryCallerStatsExactUnderSampling(t *testing.T) {
	run := func(attach bool) OpStats {
		rec := telemetry.NewRecorder(1) // default period: 16
		l := NewList[int, int]()
		if attach {
			l.SetTelemetry(rec)
		}
		var outer OpStats
		p := &Proc{Stats: &outer}
		for k := 0; k < 100; k++ {
			l.Insert(p, k, k)
			l.Get(p, k)
		}
		return outer
	}
	with, without := run(true), run(false)
	if with != without {
		t.Fatalf("caller stats drift under sampling:\n with: %+v\nwithout: %+v", with, without)
	}
}

// TestTelemetrySkipListHooksSurvive checks the telemetry wrapper preserves
// a caller Proc's hooks (the adversary harness must keep working when
// telemetry is on).
func TestTelemetrySkipListHooksSurvive(t *testing.T) {
	rec := telemetry.NewRecorder(1)
	sl := NewSkipList[int, int]()
	sl.SetTelemetry(rec)

	fired := 0
	p := &Proc{Hooks: HookFunc(func(pt Point, pid int) {
		if pt == PtSearchDone {
			fired++
		}
	})}
	sl.Insert(p, 1, 1)
	if fired == 0 {
		t.Fatal("hooks did not fire through the telemetry wrapper")
	}
	if rec.Snapshot().Ops[telemetry.OpInsert].Count != 1 {
		t.Fatal("telemetry missed the hooked operation")
	}
}

// TestTelemetrySkipListOps covers the skip-list wrappers end to end,
// including AscendRange stats.
func TestTelemetrySkipListOps(t *testing.T) {
	rec := telemetry.NewRecorder(2)
	rec.SetSampleEvery(1) // exact histograms for the assertions below
	sl := NewSkipList[int, int]()
	sl.SetTelemetry(rec)
	for k := 0; k < 100; k++ {
		sl.Insert(nil, k, k)
	}
	sl.Get(nil, 50)
	if sl.Search(nil, 51) == nil {
		t.Fatal("search missed")
	}
	sl.Delete(nil, 50)
	n := 0
	sl.AscendRange(nil, 10, 20, func(k, v int) bool { n++; return true })
	if n != 10 {
		t.Fatalf("AscendRange visited %d", n)
	}
	sl.Ascend(func(k, v int) bool { return true })

	s := rec.Snapshot()
	if s.Ops[telemetry.OpInsert].Count != 100 ||
		s.Ops[telemetry.OpGet].Count != 2 ||
		s.Ops[telemetry.OpDelete].Count != 1 ||
		s.Ops[telemetry.OpAscend].Count != 2 {
		t.Fatalf("op counts: %+v %+v %+v %+v", s.Ops[telemetry.OpInsert],
			s.Ops[telemetry.OpGet], s.Ops[telemetry.OpDelete], s.Ops[telemetry.OpAscend])
	}
	if s.Counters.CASAttempts < 100 {
		t.Fatalf("counters: %+v", s.Counters)
	}
	// Uncontended run: every op retried 0 times, so all retry mass is in
	// the first bucket.
	ins := s.Ops[telemetry.OpInsert]
	if ins.Retries.Buckets[0] != 100 {
		t.Fatalf("uncontended retries: %+v", ins.Retries)
	}
}

// prefilledSkip builds an n-key skip list; its heights are a seeded hash
// of the key, so the enabled/disabled benchmark pair sees identical
// topology.
func prefilledSkip(n int, rec *telemetry.Recorder) *SkipList[int, int] {
	sl := NewSkipList[int, int]()
	for k := 0; k < n; k++ {
		sl.Insert(nil, k, k)
	}
	sl.SetTelemetry(rec) // after the prefill, which stays unrecorded
	return sl
}

// BenchmarkTelemetryGetOverhead is the acceptance benchmark for the
// telemetry layer: Get on a prefilled skip list with telemetry disabled
// (the default, one nil check) and enabled (pooled scratch stats, exact
// striped counter flush, sampled histograms). The enabled/disabled ns/op
// ratio is the headline overhead number; the per-op cost of telemetry is a
// small constant, so the ratio shrinks as the structure grows. See README
// "Observability".
func BenchmarkTelemetryGetOverhead(b *testing.B) {
	for _, n := range []int{1024, 65536} {
		run := func(b *testing.B, rec *telemetry.Recorder) {
			sl := prefilledSkip(n, rec)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				k := 0
				for pb.Next() {
					sl.Get(nil, k%n)
					k++
				}
			})
		}
		b.Run(fmt.Sprintf("n=%d/disabled", n), func(b *testing.B) { run(b, nil) })
		b.Run(fmt.Sprintf("n=%d/enabled", n), func(b *testing.B) { run(b, telemetry.NewRecorder(0)) })
	}
}

// BenchmarkTelemetryInsertDeleteOverhead measures the write path the same
// way: alternating insert/delete of a moving key against a 1024-key
// prefill.
func BenchmarkTelemetryInsertDeleteOverhead(b *testing.B) {
	const n = 1024
	run := func(b *testing.B, rec *telemetry.Recorder) {
		sl := prefilledSkip(n, rec)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := n + i%n
			sl.Insert(nil, k, k)
			sl.Delete(nil, k)
		}
	}
	b.Run("disabled", func(b *testing.B) { run(b, nil) })
	b.Run("enabled", func(b *testing.B) { run(b, telemetry.NewRecorder(0)) })
}

// TestTelemetryNegativeElapsedClamped: a clock anomaly must not wrap the
// latency sum.
func TestTelemetryNegativeElapsedClamped(t *testing.T) {
	rec := telemetry.NewRecorder(1)
	rec.RecordOp(telemetry.OpGet, nil, -time.Second)
	s := rec.Snapshot()
	if s.Ops[telemetry.OpGet].Latency.Sum != 0 {
		t.Fatalf("negative latency leaked: %d", s.Ops[telemetry.OpGet].Latency.Sum)
	}
	if s.Ops[telemetry.OpGet].Latency.Buckets[0] != 1 {
		t.Fatalf("clamped sample missing: %+v", s.Ops[telemetry.OpGet].Latency)
	}
}
