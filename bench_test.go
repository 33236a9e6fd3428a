// Package repro's top-level benchmarks regenerate every experiment in the
// paper-reproduction index (DESIGN.md section 4): one benchmark per
// experiment/figure. Custom metrics carry the paper's quantities
// (essential steps, chain lengths, height deviations) alongside ns/op.
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// cmd/lflbench runs the same experiments with full sweeps and prints the
// paper-style tables recorded in EXPERIMENTS.md.
package repro

import (
	"math/rand/v2"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/workload"
)

// BenchmarkE1AmortizedCost measures the essential steps per operation of
// the FR list as the list grows (the O(n) term) and as contention grows
// (the additive O(c) term). steps/op is the paper's billed quantity.
func BenchmarkE1AmortizedCost(b *testing.B) {
	for _, n := range []int{256, 1024, 4096} {
		b.Run("n="+itoa(n), func(b *testing.B) {
			l := core.NewList[int, int]()
			for k := 0; k < 2*n; k += 2 {
				l.Insert(nil, k, k)
			}
			st := &core.OpStats{}
			p := &core.Proc{Stats: st}
			rng := rand.New(rand.NewPCG(1, uint64(n)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := int(rng.Uint64N(uint64(2 * n)))
				switch i % 4 {
				case 0:
					l.Insert(p, k, k)
				case 1:
					l.Delete(p, k)
				default:
					l.Search(p, k)
				}
			}
			b.ReportMetric(float64(st.EssentialSteps())/float64(b.N), "steps/op")
		})
	}
}

// BenchmarkE2HarrisAdversary runs the Section 3.1 adversarial schedule
// once per iteration and reports the mean inserter cost; the fr/harris
// sub-benchmarks differ by orders of magnitude, reproducing the
// Omega(q*n^2) versus O(q*n) separation.
func BenchmarkE2HarrisAdversary(b *testing.B) {
	const q, n = 4, 512
	b.Run("fr", func(b *testing.B) {
		var mean float64
		for i := 0; i < b.N; i++ {
			res := experiments.RunE2(experiments.E2Config{Qs: []int{q}, Ns: []int{n}})
			mean = res.Rows[0].InserterSteps.Mean
		}
		b.ReportMetric(mean, "steps/insert")
	})
	b.Run("harris", func(b *testing.B) {
		var mean float64
		for i := 0; i < b.N; i++ {
			res := experiments.RunE2(experiments.E2Config{Qs: []int{q}, Ns: []int{n}})
			mean = res.Rows[1].InserterSteps.Mean
		}
		b.ReportMetric(mean, "steps/insert")
	})
}

// BenchmarkE3ValoisDegradation measures the cleanup debt left by m
// suspended Valois deletions: the first search pays Theta(m).
func BenchmarkE3ValoisDegradation(b *testing.B) {
	for _, m := range []int{64, 256} {
		b.Run("m="+itoa(m), func(b *testing.B) {
			var first, second float64
			for i := 0; i < b.N; i++ {
				res := experiments.RunE3(experiments.E3Config{Ms: []int{m}})
				first = res.Debt[0].FirstSearch
				second = res.Debt[0].SecondSearch
			}
			b.ReportMetric(first, "first-search-steps")
			b.ReportMetric(second, "second-search-steps")
		})
	}
}

// BenchmarkE4ListThroughput measures parallel throughput of every
// implementation on the balanced mix over a 4096-key range.
func BenchmarkE4ListThroughput(b *testing.B) {
	for _, impl := range experiments.E4Impls {
		b.Run(impl, func(b *testing.B) {
			d := experiments.NewDict(impl)
			for _, k := range workload.Prefill(4096) {
				experiments.ApplyOp(d, workload.Op{Kind: workload.OpInsert, Key: k})
			}
			var seed atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				gen := workload.NewGenerator(workload.Config{
					Mix: workload.Balanced, Dist: workload.Uniform,
					Range: 4096, Seed: 7,
				}, int(seed.Add(1)))
				for pb.Next() {
					experiments.ApplyOp(d, gen.Next())
				}
			})
		})
	}
}

// BenchmarkE5SkipListScaling measures skip-list search latency at growing
// sizes; ns/op should grow logarithmically.
func BenchmarkE5SkipListScaling(b *testing.B) {
	for _, n := range []int{1_000, 16_000, 256_000} {
		b.Run("n="+itoa(n), func(b *testing.B) {
			l := core.NewSkipList[int, int]()
			for k := 0; k < 2*n; k += 2 {
				l.Insert(nil, k, k)
			}
			st := &core.OpStats{}
			p := &core.Proc{Stats: st}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l.Search(p, (i*7919)%(2*n))
			}
			b.ReportMetric(float64(st.EssentialSteps())/float64(b.N), "steps/op")
		})
	}
}

// BenchmarkE6TowerConstruction measures concurrent insertion (tower
// building) throughput and reports the resulting mean tower height, which
// must stay near the fan-out-4 expectation of 4/3.
func BenchmarkE6TowerConstruction(b *testing.B) {
	l := core.NewSkipList[int, int]()
	var next atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		p := &core.Proc{}
		for pb.Next() {
			k := int(next.Add(1))
			l.Insert(p, k, k)
		}
	})
	hist := l.Heights()
	var total, weighted float64
	for h1, c := range hist {
		total += float64(c)
		weighted += float64(c) * float64(h1+1)
	}
	if total > 0 {
		b.ReportMetric(weighted/total, "mean-height")
	}
}

// BenchmarkE7BacklinkChains builds the Section 3.1 rightward-growing chain
// and reports the victim's recovery walk for both implementations.
func BenchmarkE7BacklinkChains(b *testing.B) {
	for _, k := range []int{64, 256} {
		b.Run("k="+itoa(k), func(b *testing.B) {
			var noflagWalk, frWalk float64
			for i := 0; i < b.N; i++ {
				res := experiments.RunE7(experiments.E7Config{Ks: []int{k}})
				noflagWalk = float64(res.Rows[0].VictimWalk)
				frWalk = float64(res.Rows[1].VictimWalk)
			}
			b.ReportMetric(noflagWalk, "noflag-walk")
			b.ReportMetric(frWalk, "fr-walk")
		})
	}
}

// BenchmarkE8StallRobustness runs the delay-robustness experiment once per
// iteration and reports the ops other workers completed during the stall.
func BenchmarkE8StallRobustness(b *testing.B) {
	for _, impl := range []string{"fr", "locked"} {
		b.Run(impl, func(b *testing.B) {
			var ops float64
			for i := 0; i < b.N; i++ {
				res := experiments.RunE8(experiments.E8Config{
					Workers: 4, Stall: 50 * time.Millisecond, KeyRange: 512, Seed: 3,
				})
				idx := 0
				if impl == "locked" {
					idx = 1
				}
				ops = float64(res.Rows[idx].OpsDuring)
			}
			b.ReportMetric(ops, "ops-during-stall")
		})
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
