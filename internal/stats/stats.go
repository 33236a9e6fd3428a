// Package stats provides the small statistical toolkit the experiment
// harness needs: summaries and least-squares fits for verifying the
// linear and logarithmic cost shapes the paper claims.
package stats

import (
	"math"
	"sort"
)

// Summary describes a sample of float64 observations.
type Summary struct {
	N             int
	Mean, Std     float64
	Min, Max      float64
	P50, P90, P99 float64
	Total         float64
}

// Summarize computes a Summary of xs. It copies xs and leaves it
// unmodified.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	var sum, sq float64
	for _, x := range s {
		sum += x
		sq += x * x
	}
	n := float64(len(s))
	mean := sum / n
	variance := sq/n - mean*mean
	if variance < 0 {
		variance = 0
	}
	return Summary{
		N:     len(s),
		Mean:  mean,
		Std:   math.Sqrt(variance),
		Min:   s[0],
		Max:   s[len(s)-1],
		P50:   quantile(s, 0.50),
		P90:   quantile(s, 0.90),
		P99:   quantile(s, 0.99),
		Total: sum,
	}
}

// quantile returns the q-quantile (0 <= q <= 1) of a sorted sample,
// interpolating linearly between neighbours.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// LinearFit is a least-squares fit y = Slope*x + Intercept with the
// coefficient of determination R2.
type LinearFit struct {
	Slope, Intercept, R2 float64
}

// FitLinear fits y = a*x + b by least squares. It requires at least two
// points with distinct x values; otherwise it returns a zero fit.
func FitLinear(xs, ys []float64) LinearFit {
	n := float64(len(xs))
	if len(xs) < 2 || len(xs) != len(ys) {
		return LinearFit{}
	}
	var sx, sy, sxx, sxy, syy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
		syy += ys[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return LinearFit{}
	}
	slope := (n*sxy - sx*sy) / den
	intercept := (sy - slope*sx) / n
	// R^2 = 1 - SS_res/SS_tot.
	ssTot := syy - sy*sy/n
	var ssRes float64
	for i := range xs {
		r := ys[i] - (slope*xs[i] + intercept)
		ssRes += r * r
	}
	r2 := 1.0
	if ssTot > 0 {
		r2 = 1 - ssRes/ssTot
	}
	return LinearFit{Slope: slope, Intercept: intercept, R2: r2}
}

// FitLogarithmic fits y = a*log2(x) + b and returns it as a LinearFit over
// log2(x). xs must be positive.
func FitLogarithmic(xs, ys []float64) LinearFit {
	lx := make([]float64, len(xs))
	for i, x := range xs {
		lx[i] = math.Log2(x)
	}
	return FitLinear(lx, ys)
}
