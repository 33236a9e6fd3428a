package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
)

// suite.go is the one command a person runs: every workload untraced, then
// traced, every metric printed by name and unit; with -repeat 2 the whole
// suite twice on the same tree and seed, and the two runs compared.

// suiteRun is one pass over all workloads, as written to the results files.
type suiteRun struct {
	Seed      uint64                    `json:"seed"`
	Seconds   float64                   `json:"seconds"`
	Claim     *string                   `json:"claim"` // null: defining the benchmark claims no gain
	Workloads map[string]workloadResult `json:"workloads"`
}

type workloadResult struct {
	EndToEnd result `json:"end_to_end"`
	PerLayer result `json:"per_layer"`
}

func runSuite(e env, seed uint64, seconds float64, repeat int, dir string) error {
	var runs []suiteRun
	for rep := 1; rep <= repeat; rep++ {
		run := suiteRun{Seed: seed, Seconds: seconds, Workloads: map[string]workloadResult{}}
		for _, name := range workloadNames {
			var wr workloadResult
			var err error
			if wr.EndToEnd, err = runWorkload(e, name, seed, seconds, false); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			wr.EndToEnd.print(name, false)
			if wr.PerLayer, err = runWorkload(e, name, seed, seconds, true); err != nil {
				return fmt.Errorf("%s traced: %w", name, err)
			}
			wr.PerLayer.print(name, true)
			if !wr.EndToEnd.Correct || !wr.PerLayer.Correct {
				return fmt.Errorf("%s: output checks failed (%d untraced, %d traced)", name, wr.EndToEnd.Failed, wr.PerLayer.Failed)
			}
			run.Workloads[name] = wr
		}
		runs = append(runs, run)
		if dir != "" {
			if err := writeRun(dir, rep, run); err != nil {
				return err
			}
		}
	}
	if repeat < 2 {
		return nil
	}
	return compareRuns(runs[0], runs[1])
}

func writeRun(dir string, rep int, run suiteRun) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(run, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("seed%d-run%d.json", run.Seed, rep)), append(b, '\n'), 0o644)
}

// compareRuns prints, for every end-to-end metric of every workload, the
// relative difference between two runs of the same code beside the
// metric's bound, and fails if any pair disagrees by more than its bound.
// Per-layer metrics are printed too, for the record; they have no bound.
func compareRuns(a, b suiteRun) error {
	relDiff := func(x, y float64) float64 {
		if x == y {
			return 0
		}
		return math.Abs(x-y) / math.Max(math.Abs(x), math.Abs(y))
	}
	beyond := 0
	for _, name := range workloadNames {
		for _, m := range endToEnd {
			x, y := a.Workloads[name].EndToEnd.get(m.name), b.Workloads[name].EndToEnd.get(m.name)
			d := relDiff(x, y)
			verdict := "ok"
			if d > m.bound {
				verdict = "BEYOND BOUND"
				beyond++
			}
			fmt.Printf("# repeat %-18s %-22s %14.6g %14.6g  diff %6.2f%%  bound %4.0f%%  %s\n", name, m.name, x, y, 100*d, 100*m.bound, verdict)
		}
		for _, m := range perLayer {
			x, y := a.Workloads[name].PerLayer.get(m.name), b.Workloads[name].PerLayer.get(m.name)
			if x != 0 || y != 0 {
				fmt.Printf("# repeat %-18s %-30s %14.6g %14.6g  diff %6.2f%%\n", name, m.name, x, y, 100*relDiff(x, y))
			}
		}
	}
	if beyond > 0 {
		return fmt.Errorf("%d end-to-end metric x workload pairs of two runs of the same code disagree beyond their bound", beyond)
	}
	return nil
}
