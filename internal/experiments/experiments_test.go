package experiments

import (
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/workload"
)

func TestTableRender(t *testing.T) {
	tab := Table{Title: "t", Columns: []string{"a", "bb"}}
	tab.AddRow("1", "2")
	tab.AddRow("333", "4")
	tab.Notes = append(tab.Notes, "hello")
	out := tab.Render()
	for _, want := range []string{"== t ==", "a", "bb", "333", "note: hello"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestE1LinearInN(t *testing.T) {
	res := RunE1(E1Config{
		Ns:        []int{100, 200, 400, 800},
		Cs:        []int{1, 4},
		FixedC:    2,
		FixedN:    32,
		OpsPerRun: 800,
		Seed:      5,
	})
	if res.NFit.R2 < 0.95 {
		t.Fatalf("steps/op not linear in n: fit %+v", res.NFit)
	}
	if res.NFit.Slope <= 0 {
		t.Fatalf("nonpositive slope: %+v", res.NFit)
	}
	// Steps at n=800 should be roughly 8x steps at n=100 (both dominated
	// by the linear search term); allow a factor-of-two band.
	lo, hi := res.NSweep[0].Steps.Mean, res.NSweep[len(res.NSweep)-1].Steps.Mean
	if hi < 4*lo || hi > 16*lo {
		t.Fatalf("scaling off: %f -> %f", lo, hi)
	}
	if out := res.Render(); !strings.Contains(out, "E1a") || !strings.Contains(out, "E1b") {
		t.Fatalf("render: %s", out)
	}
}

func TestE1ContentionAdditive(t *testing.T) {
	res := RunE1(E1Config{
		Ns:        []int{64},
		Cs:        []int{1, 2, 4, 8},
		FixedC:    1,
		FixedN:    64,
		OpsPerRun: 2000,
		Seed:      6,
	})
	// The c=8 mean must stay within an additive band of the c=1 mean: the
	// bound is O(n + c), so going from c=1 to c=8 must not multiply the
	// cost (Harris-style restarts would).
	base := res.CSweep[0].Steps.Mean
	worst := res.CSweep[len(res.CSweep)-1].Steps.Mean
	if worst > 3*base+50 {
		t.Fatalf("contention overhead looks multiplicative: c=1 %.1f, c=8 %.1f", base, worst)
	}
}

func TestE2HarrisQuadraticFRLinear(t *testing.T) {
	res := RunE2(E2Config{Qs: []int{3}, Ns: []int{128, 256}})
	get := func(impl string, n int) float64 {
		for _, r := range res.Rows {
			if r.Impl == impl && r.N == n {
				return r.InserterSteps.Mean
			}
		}
		t.Fatalf("row %s/%d missing", impl, n)
		return 0
	}
	// Each FR inserter pays its search plus O(1) per round: 3n steps on
	// this schedule, and up to two more per inserter for the race between
	// the inserters once the last round releases them.
	const q = 3
	for _, n := range []int{128, 256} {
		if mean := get("fomitchev-ruppert", n); mean < 3*float64(n) || mean > 3*float64(n)+2*q {
			t.Fatalf("FR inserter at n=%d paid %.1f steps, want within [3n, 3n+2q] = [%d, %d]", n, mean, 3*n, 3*n+2*q)
		}
	}
	harrisRatio := get("harris", 256) / get("harris", 128)
	if harrisRatio < 3 {
		t.Fatalf("Harris inserter cost did not grow quadratically: ratio %.2f", harrisRatio)
	}
	// And at every n, Harris must be far costlier than FR.
	if get("harris", 256) < 10*get("fomitchev-ruppert", 256) {
		t.Fatalf("Harris/FR gap too small: %f vs %f",
			get("harris", 256), get("fomitchev-ruppert", 256))
	}
}

func TestE3DebtLinearAndRecovered(t *testing.T) {
	res := RunE3(E3Config{Ns: []int{128}, Ms: []int{32, 128}})
	for _, row := range res.Overhead {
		if row.StepOverhead < 0.9 {
			t.Fatalf("valois cheaper than FR per step? %+v", row)
		}
	}
	var v32, v128 E3DebtRow
	for _, row := range res.Debt {
		if row.Impl == "valois" && row.M == 32 {
			v32 = row
		}
		if row.Impl == "valois" && row.M == 128 {
			v128 = row
		}
	}
	// First-search debt grows with m.
	if v128.FirstSearch-v128.Baseline < 2*(v32.FirstSearch-v32.Baseline) {
		t.Fatalf("valois debt not growing: m=32 %+v, m=128 %+v", v32, v128)
	}
	// Second search must be near the clean baseline (debt paid once).
	if v128.SecondSearch > v128.Baseline*2+16 {
		t.Fatalf("valois second search still expensive: %+v", v128)
	}
}

// TestE3FRExactConstants pins the FR columns of E3's tables at the
// harness's own configuration. Every one is a count of essential steps on
// a schedule the adversary fixes, so it repeats exactly from run to run: a
// change to the list's search or helping cost moves a number here.
func TestE3FRExactConstants(t *testing.T) {
	res := RunE3(DefaultE3Config())
	overhead := map[int]float64{256: 257, 1024: 1022, 4096: 4082}
	for _, row := range res.Overhead {
		if want := overhead[row.N]; row.FRSteps != want {
			t.Errorf("E3a n=%d: FR paid %v steps per search, want %v", row.N, row.FRSteps, want)
		}
	}
	type debt struct{ first, second, baseline float64 }
	debts := map[int]debt{16: {68, 36, 36}, 64: {260, 132, 132}, 256: {1028, 516, 516}, 1024: {4100, 2052, 2052}}
	for _, row := range res.Debt {
		if row.Impl != "fomitchev-ruppert" {
			continue
		}
		if got := (debt{row.FirstSearch, row.SecondSearch, row.Baseline}); got != debts[row.M] {
			t.Errorf("E3b m=%d: FR (first, second, baseline) = %v, want %v", row.M, got, debts[row.M])
		}
	}
}

// TestE7FRExactConstants pins E7's FR rows: the victim walks exactly one
// backlink at every chain length, and its total steps are its search plus
// that one recovery.
func TestE7FRExactConstants(t *testing.T) {
	steps := map[int]uint64{8: 19, 32: 67, 128: 259, 512: 1027}
	for _, row := range RunE7(DefaultE7Config()).Rows {
		if row.Impl != "fomitchev-ruppert" {
			continue
		}
		if !row.InsertRecovered || row.VictimWalk != 1 || row.VictimSteps != steps[row.K] {
			t.Errorf("E7 k=%d: FR victim walked %d backlinks in %d steps (recovered %t), want 1 in %d",
				row.K, row.VictimWalk, row.VictimSteps, row.InsertRecovered, steps[row.K])
		}
	}
}

func TestE4SmokeAllImpls(t *testing.T) {
	cfg := E4Config{
		Threads:   []int{2},
		Mixes:     []workload.Mix{workload.Balanced},
		KeyRanges: []int{64},
		Ops:       4000,
		Seed:      1,
	}
	res := RunE4(cfg)
	if len(res.Rows) != len(E4Impls) {
		t.Fatalf("got %d rows, want %d", len(res.Rows), len(E4Impls))
	}
	for _, row := range res.Rows {
		if row.OpsPerSec <= 0 {
			t.Fatalf("no throughput for %s", row.Impl)
		}
	}
}

func TestE5Logarithmic(t *testing.T) {
	// Five sizes keep the fit stable against the randomness of tower
	// heights; the decisive assertion is the growth ratio (64x more keys
	// must cost well under 3x the steps - a linear structure would cost
	// 64x), with the R^2 check as a loose shape filter.
	res := RunE5(E5Config{Ns: []int{1000, 4000, 8000, 16000, 64000}, Probes: 500, MaxListN: 8000})
	if res.StepFit.R2 < 0.7 {
		t.Fatalf("skip steps not logarithmic: %+v", res.StepFit)
	}
	if res.StepFit.Slope > 5 {
		t.Fatalf("steps per doubling = %.2f, want near 3 (two steps a move, 1.5 moves per doubling at fan-out 4)", res.StepFit.Slope)
	}
	first, last := res.Rows[0].SkipSteps, res.Rows[len(res.Rows)-1].SkipSteps
	if last > first*3 {
		t.Fatalf("steps grew too fast for log n: %f -> %f over 64x size", first, last)
	}
}

// TestE6GeometricHeights checks the surviving towers against geometric(3/4)
// - fan-out 4, mean height 4/3 - and, since a height is a hash of the key,
// that every contention level leaves the same histogram.
func TestE6GeometricHeights(t *testing.T) {
	res := RunE6(E6Config{N: 40_000, Cs: []int{1, 8}, Churn: true, Seed: 3})
	for _, row := range res.Rows {
		if row.MaxAbsDeviation > 0.25 {
			t.Fatalf("c=%d: heights deviate %.0f%% from geometric",
				row.C, 100*row.MaxAbsDeviation)
		}
		if row.MeanHeight < 4.0/3-0.2 || row.MeanHeight > 4.0/3+0.2 {
			t.Fatalf("c=%d: mean height %.2f, want near 4/3", row.C, row.MeanHeight)
		}
		if !slices.Equal(row.Histogram, res.Rows[0].Histogram) {
			t.Fatalf("c=%d left heights %v, c=%d left %v: one seed and one key set, two shapes",
				row.C, row.Histogram, res.Rows[0].C, res.Rows[0].Histogram)
		}
	}
}

func TestE7FlagBitsBoundChains(t *testing.T) {
	res := RunE7(E7Config{Ks: []int{8, 64}})
	rows := map[string]map[int]E7Row{}
	for _, row := range res.Rows {
		if rows[row.Impl] == nil {
			rows[row.Impl] = map[int]E7Row{}
		}
		rows[row.Impl][row.K] = row
		if !row.InsertRecovered {
			t.Fatalf("%s k=%d: victim insert did not recover", row.Impl, row.K)
		}
	}
	// Ablation: the victim walks the whole chain.
	if got := rows["no-flag ablation"][64].VictimWalk; got < 60 {
		t.Fatalf("ablation walk at k=64 = %d, want about 64", got)
	}
	if a8, a64 := rows["no-flag ablation"][8].VictimWalk, rows["no-flag ablation"][64].VictimWalk; a64 < 4*a8 {
		t.Fatalf("ablation chain not growing: k=8 %d, k=64 %d", a8, a64)
	}
	// Flags: the walk stays O(1) regardless of k.
	for _, k := range []int{8, 64} {
		if got := rows["fomitchev-ruppert"][k].VictimWalk; got > 3 {
			t.Fatalf("FR walk at k=%d = %d, want O(1)", k, got)
		}
	}
	if out := res.Render(); !strings.Contains(out, "no-flag ablation") {
		t.Fatalf("render: %s", out)
	}
}

func TestE8LockFreeProgressDuringStall(t *testing.T) {
	res := RunE8(E8Config{Workers: 4, Stall: 60 * time.Millisecond, KeyRange: 256, Seed: 2})
	var fr, locked E8Row
	for _, row := range res.Rows {
		switch row.Impl {
		case "fr-skiplist":
			fr = row
		default:
			locked = row
		}
	}
	if !fr.StalledFinal {
		t.Fatal("stalled FR deletion did not complete correctly")
	}
	if fr.OpsDuring < 500 {
		t.Fatalf("lock-free workers completed only %d ops during the stall", fr.OpsDuring)
	}
	// The locked structure may sneak in a few reads before everyone piles
	// up behind the writer lock, but progress must be essentially zero.
	// (An absolute bound keeps the test robust to machine-load noise in
	// fr.OpsDuring.)
	if locked.OpsDuring > 1000 && locked.OpsDuring > fr.OpsDuring/10 {
		t.Fatalf("locked baseline made too much progress during the stall: %d vs %d",
			locked.OpsDuring, fr.OpsDuring)
	}
}
