// Command lflbench runs the paper-reproduction experiments E1-E8 (see
// DESIGN.md for the experiment index) and prints their tables, plus the
// "bench" stage, which drives the telemetry-instrumented structures and
// writes machine-readable results to BENCH_lflbench.json.
//
// Usage:
//
//	lflbench [-exp e1,e2,...,bench|all] [-quick] [-json FILE] [-telemetry-addr HOST:PORT]
//	         [-cpuprofile FILE] [-memprofile FILE]
//
// -quick shrinks every sweep for a fast smoke run; the defaults are the
// full configurations recorded in EXPERIMENTS.md. -telemetry-addr serves
// the live /metrics (Prometheus text) and /debug/vars (expvar) endpoints
// while the run is in progress. -cpuprofile records a pprof CPU profile
// covering every selected experiment; -memprofile writes a heap profile
// (after a forced GC) when the run completes. Both feed `go tool pprof`.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "lflbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("lflbench", flag.ContinueOnError)
	expFlag := fs.String("exp", "all", "comma-separated experiments to run (e1..e8, bench, or all)")
	quick := fs.Bool("quick", false, "shrink sweeps for a fast smoke run")
	jsonPath := fs.String("json", "BENCH_lflbench.json", "output file for the bench stage's machine-readable results")
	telAddr := fs.String("telemetry-addr", "", "serve /metrics and /debug/vars on this address during the run")
	cpuProfile := fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memProfile := fs.String("memprofile", "", "write a pprof heap profile to this file when the run completes")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}

	want := map[string]bool{}
	if *expFlag == "all" {
		for _, e := range []string{"e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "bench"} {
			want[e] = true
		}
	} else {
		for _, e := range strings.Split(*expFlag, ",") {
			e = strings.ToLower(strings.TrimSpace(e))
			if e != "" {
				want[e] = true
			}
		}
	}

	if *telAddr != "" {
		stop, addr, err := serveTelemetry(*telAddr)
		if err != nil {
			return err
		}
		defer stop()
		fmt.Printf("telemetry: serving /metrics and /debug/vars on http://%s\n\n", addr)
	}

	wrap := func(f func(bool) string) func(bool) (string, error) {
		return func(q bool) (string, error) { return f(q), nil }
	}
	runners := []struct {
		name string
		fn   func(quick bool) (string, error)
	}{
		{"e1", wrap(runE1)},
		{"e2", wrap(runE2)},
		{"e3", wrap(runE3)},
		{"e4", wrap(runE4)},
		{"e5", wrap(runE5)},
		{"e6", wrap(runE6)},
		{"e7", wrap(runE7)},
		{"e8", wrap(runE8)},
		{"bench", func(q bool) (string, error) { return runBenchJSON(*jsonPath, q) }},
	}
	ran := 0
	for _, r := range runners {
		if !want[r.name] {
			continue
		}
		begin := time.Now()
		out, err := r.fn(*quick)
		if err != nil {
			return fmt.Errorf("%s: %w", r.name, err)
		}
		fmt.Print(out)
		fmt.Printf("[%s finished in %v]\n\n", r.name, time.Since(begin).Round(time.Millisecond))
		ran++
	}
	if ran == 0 {
		return fmt.Errorf("no experiments selected (use -exp e1..e8, bench, or all)")
	}

	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		runtime.GC() // settle the heap so the profile shows live retention
		if err := pprof.WriteHeapProfile(f); err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
	}
	return nil
}

func runE1(quick bool) string {
	cfg := experiments.DefaultE1Config()
	if quick {
		cfg.Ns = []int{250, 1000, 4000}
		cfg.Cs = []int{1, 4, 16}
		cfg.OpsPerRun = 1000
	}
	return experiments.RunE1(cfg).Render()
}

func runE2(quick bool) string {
	cfg := experiments.DefaultE2Config()
	if quick {
		cfg = experiments.E2Config{Qs: []int{4}, Ns: []int{256, 512}}
	}
	return experiments.RunE2(cfg).Render()
}

func runE3(quick bool) string {
	cfg := experiments.DefaultE3Config()
	if quick {
		cfg = experiments.E3Config{Ns: []int{256, 1024}, Ms: []int{16, 128}}
	}
	return experiments.RunE3(cfg).Render()
}

func runE4(quick bool) string {
	cfg := experiments.DefaultE4Config()
	if quick {
		cfg.Threads = []int{1, 4}
		cfg.Mixes = []workload.Mix{workload.Balanced}
		cfg.KeyRanges = []int{256}
		cfg.Ops = 50_000
	}
	return experiments.RunE4(cfg).Render()
}

func runE5(quick bool) string {
	cfg := experiments.DefaultE5Config()
	if quick {
		cfg = experiments.E5Config{Ns: []int{1000, 16000, 64000}, Probes: 500, MaxListN: 16000}
	}
	return experiments.RunE5(cfg).Render()
}

func runE6(quick bool) string {
	cfg := experiments.DefaultE6Config()
	if quick {
		cfg.N = 30_000
		cfg.Cs = []int{1, 8}
	}
	return experiments.RunE6(cfg).Render()
}

func runE8(quick bool) string {
	cfg := experiments.DefaultE8Config()
	if quick {
		cfg.Stall = 50 * time.Millisecond
	}
	return experiments.RunE8(cfg).Render()
}

func runE7(quick bool) string {
	cfg := experiments.DefaultE7Config()
	if quick {
		cfg.Ks = []int{8, 64}
	}
	return experiments.RunE7(cfg).Render()
}
