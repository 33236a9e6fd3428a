package stats

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.P50 != 3 {
		t.Fatalf("bad summary: %+v", s)
	}
	if math.Abs(s.Std-math.Sqrt(2)) > 1e-9 {
		t.Fatalf("std = %f", s.Std)
	}
	if s.Total != 15 {
		t.Fatalf("total = %f", s.Total)
	}
	if got := Summarize(nil); got.N != 0 {
		t.Fatalf("empty summary: %+v", got)
	}
}

func TestSummarizeDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	Summarize(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input mutated: %v", xs)
	}
}

func TestQuantile(t *testing.T) {
	s := []float64{10, 20, 30, 40}
	if got := quantile(s, 0); got != 10 {
		t.Fatalf("q0 = %f", got)
	}
	if got := quantile(s, 1); got != 40 {
		t.Fatalf("q1 = %f", got)
	}
	if got := quantile(s, 0.5); got != 25 {
		t.Fatalf("q0.5 = %f", got)
	}
}

func TestFitLinearExact(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{5, 7, 9, 11} // y = 2x + 3
	f := FitLinear(xs, ys)
	if math.Abs(f.Slope-2) > 1e-9 || math.Abs(f.Intercept-3) > 1e-9 || f.R2 < 0.999999 {
		t.Fatalf("fit = %+v", f)
	}
}

func TestFitLinearNoisy(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	var xs, ys []float64
	for i := 0; i < 200; i++ {
		x := float64(i)
		xs = append(xs, x)
		ys = append(ys, 3*x+10+rng.Float64()*2-1)
	}
	f := FitLinear(xs, ys)
	if math.Abs(f.Slope-3) > 0.05 || f.R2 < 0.99 {
		t.Fatalf("fit = %+v", f)
	}
}

func TestFitLinearDegenerate(t *testing.T) {
	if f := FitLinear([]float64{1}, []float64{1}); f.Slope != 0 {
		t.Fatalf("single-point fit = %+v", f)
	}
	if f := FitLinear([]float64{2, 2}, []float64{1, 5}); f.Slope != 0 {
		t.Fatalf("vertical fit = %+v", f)
	}
}

func TestFitLogarithmic(t *testing.T) {
	var xs, ys []float64
	for _, n := range []float64{16, 64, 256, 1024, 4096} {
		xs = append(xs, n)
		ys = append(ys, 7*math.Log2(n)+2)
	}
	f := FitLogarithmic(xs, ys)
	if math.Abs(f.Slope-7) > 1e-9 || f.R2 < 0.999999 {
		t.Fatalf("fit = %+v", f)
	}
}

func TestSummaryQuantileMonotoneQuick(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		s := Summarize(xs)
		return s.Min <= s.P50 && s.P50 <= s.P90 && s.P90 <= s.P99 && s.P99 <= s.Max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
