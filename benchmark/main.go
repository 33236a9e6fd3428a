// Command lflbenchmark is the repo benchmark defined by BENCHMARK.json:
// four workloads from a library call to a durable wire write, measured end
// to end with tracing off, and a traced ladder that attributes cost to each
// layer from outside. Run it through benchmark/run.sh, which builds it and
// cmd/lflserver; README.md in this directory is the manual.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's last output line, in the driver's shape.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	notes     []string
}

func newResult(attempted, failed uint64) result {
	return result{Correct: failed == 0, Attempted: max(attempted, 1), Failed: failed, Metrics: map[string]metric{}}
}

func (r *result) set(name string, v float64, unit string) { r.Metrics[name] = metric{v, unit} }

func (r result) get(name string) float64 { return r.Metrics[name].Value }

// note records a line of context (sample counts, window sizes) printed
// above the metrics.
func (r *result) note(format string, a ...any) { r.notes = append(r.notes, fmt.Sprintf(format, a...)) }

// print writes the notes, every metric by name with its unit, and the
// result object as the last line.
func (r result) print(workload string, traced bool) {
	for _, n := range r.notes {
		fmt.Printf("# %s: %s\n", workload, n)
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Printf("# %s trace=%d %-34s %16.6g %s\n", workload, b2i(traced), n, m.Value, m.Unit)
	}
	line, err := json.Marshal(r)
	if err != nil {
		panic(err) // a result holds only numbers and strings
	}
	fmt.Println(string(line))
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// env is what a run needs from its surroundings.
type env struct {
	server  string // path of the lflserver binary
	workdir string // directory for WAL dirs, inside the checkout
	outdir  string // directory for trace files
}

var workloadNames = []string{"lib_read", "lib_churn", "wire_pipe16", "wire_open_durable"}

func runWorkload(e env, name string, seed uint64, seconds float64, traced bool) (result, error) {
	if traced {
		res, err := runLadder(e, name, seed, seconds)
		return res.only(perLayer), err
	}
	res, err := runUntraced(e, name, seed, sizing{seconds: seconds, setupReps: 3})
	return res.only(endToEnd), err
}

// runUntraced measures one workload end to end with tracing off. The
// result also carries what the run learned about single layers from
// outside the program (syscall counts, the child's counters); the traced
// run reports those.
func runUntraced(e env, name string, seed uint64, sz sizing) (result, error) {
	switch name {
	case "lib_read":
		return runLib(libRead, seed, sz)
	case "lib_churn":
		return runLib(libChurn, seed, sz)
	case "wire_pipe16":
		return runPipe16(e, seed, sz)
	case "wire_open_durable":
		return runOpenDurable(e, seed, sz)
	}
	return result{}, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

func main() {
	var e env
	workload := flag.String("workload", "", "run one workload and print its result object; empty runs the whole suite")
	seed := flag.Uint64("seed", 1, "seed of every generated input")
	seconds := flag.Float64("seconds", 15, "measured seconds of one run")
	trace := flag.Int("trace", 0, "1 runs the traced ladder and prints the per-layer metrics")
	repeat := flag.Int("repeat", 1, "run the suite this many times on the same seed and compare the runs")
	results := flag.String("results", "", "with -repeat: directory the result files are written to")
	flag.StringVar(&e.server, "server", ".bench_build/lflserver", "lflserver binary")
	flag.StringVar(&e.workdir, "workdir", ".bench_build", "directory for temporary WAL directories")
	flag.StringVar(&e.outdir, "out", "benchmark/out", "directory for trace files")
	flag.Parse()

	if err := run(e, *workload, *seed, *seconds, *trace != 0, *repeat, *results); err != nil {
		fmt.Fprintln(os.Stderr, "lflbenchmark:", err)
		os.Exit(1)
	}
}

func run(e env, workload string, seed uint64, seconds float64, traced bool, repeat int, resultsDir string) error {
	if seconds < 1 {
		return fmt.Errorf("-seconds %v: need at least 1", seconds)
	}
	if workload != "" {
		res, err := runWorkload(e, workload, seed, seconds, traced)
		if err != nil {
			return fmt.Errorf("%s: %w", workload, err)
		}
		// A run that completed exits 0 even when checks failed: the result
		// object's "correct" and "failed" carry the verdict.
		res.print(workload, traced)
		return nil
	}
	return runSuite(e, seed, seconds, repeat, resultsDir)
}
