package experiments

import (
	"sync"

	"repro/internal/core"
	"repro/internal/heights"
)

// E6 investigates the distribution of tower heights (Section 4, final
// paragraph). The paper argues that full towers follow the geometric
// distribution of the sequential skip list, that a non-deleted tower can
// be incomplete only while its insertion or deletion is in progress - so
// the number of incomplete towers at any time is bounded by the point
// contention - and that higher towers are slightly more likely to end up
// incomplete because their construction window is longer. Here the
// distribution is fan-out 4 (P(height >= j) = 4^-(j-1), package heights)
// and a height is a seeded hash of the key, so once every insertion has
// finished the histogram is the key set's alone: every contention level
// must produce the same one.
type E6Result struct {
	Rows []E6Row
}

// E6Row is one contention level: the measured height histogram of the
// surviving towers after n concurrent insertions (plus churn), compared
// against the geometric expectation.
type E6Row struct {
	C          int
	N          int   // surviving towers
	Histogram  []int // index h-1 = towers of height h
	MaxHeight  int
	MeanHeight float64
	// MaxAbsDeviation is the largest |measured - expected| / expected over
	// heights with expectation >= 50 towers.
	MaxAbsDeviation float64
}

// E6Config parameterizes the experiment.
type E6Config struct {
	N     int   // keys inserted per run
	Cs    []int // concurrent inserter counts
	Churn bool  // also run concurrent deleters over half the key space
	Seed  uint64
}

// DefaultE6Config returns the configuration used by the harness.
func DefaultE6Config() E6Config {
	return E6Config{N: 100_000, Cs: []int{1, 8, 32}, Churn: true, Seed: 21}
}

// RunE6 builds skip lists at each contention level and reports the height
// distribution of the surviving towers.
func RunE6(cfg E6Config) E6Result {
	var res E6Result
	for _, c := range cfg.Cs {
		res.Rows = append(res.Rows, runE6(cfg, c))
	}
	return res
}

func runE6(cfg E6Config, c int) E6Row {
	l := core.NewSkipList[int, int](core.WithSeed(cfg.Seed))
	var wg sync.WaitGroup
	per := cfg.N / c
	for w := 0; w < c; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := &core.Proc{ID: w}
			for i := 0; i < per; i++ {
				k := w*per + i
				l.Insert(p, k, k)
				// Churn: delete and reinsert a recent key now and then to
				// exercise interrupted tower construction.
				if cfg.Churn && i%16 == 7 {
					l.Delete(p, k)
					l.Insert(p, k, k)
				}
			}
		}(w)
	}
	wg.Wait()
	hist := l.Heights()
	row := E6Row{C: c, Histogram: hist}
	var total, weighted float64
	for h1, count := range hist {
		if count > 0 {
			row.MaxHeight = h1 + 1
		}
		total += float64(count)
		weighted += float64(count) * float64(h1+1)
	}
	row.N = int(total)
	if total > 0 {
		row.MeanHeight = weighted / total
	}
	for h1, count := range hist {
		exp := float64(row.N) * heights.Mass(h1+1)
		if exp >= 50 {
			dev := abs(float64(count)-exp) / exp
			if dev > row.MaxAbsDeviation {
				row.MaxAbsDeviation = dev
			}
		}
	}
	return row
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// Render prints, per contention level, the measured-vs-expected histogram
// for the first ten heights.
func (r E6Result) Render() string {
	out := ""
	for _, row := range r.Rows {
		t := Table{
			Title: fmt2("E6: tower heights at contention c=%d (n=%d, mean=%.3f, max=%d, worst dev=%.1f%%)",
				row.C, row.N, row.MeanHeight, row.MaxHeight, 100*row.MaxAbsDeviation),
			Columns: []string{"height", "towers", "expected (geometric, fan-out 4)"},
		}
		for h := 1; h <= min(10, len(row.Histogram)); h++ {
			t.AddRow(d(h), d(row.Histogram[h-1]),
				fmt2("%.0f", float64(row.N)*heights.Mass(h)))
		}
		out += t.Render() + "\n"
	}
	return out
}
