package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// quickBench runs the instrumented bench stage in quick mode and parses the
// machine-readable file it wrote.
func quickBench(t *testing.T) (string, benchJSON) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "BENCH_lflbench.json")
	text, err := runBenchJSON(path, true)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out benchJSON
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	return text, out
}

// deadRecycleRow returns the first churn+rec row whose retire-to-free-list
// counter reads 0, or nil when every such row shows it live.
func deadRecycleRow(out benchJSON) *benchRow {
	for i, row := range out.Benchmarks {
		if row.Workload == "churn" && row.Recycle && row.Counters["nodes_recycled"] == 0 {
			return &out.Benchmarks[i]
		}
	}
	return nil
}

// TestBenchJSONOutput runs the instrumented bench stage in quick mode and
// checks the machine-readable file: valid JSON, expected schema, and live
// metrics (throughput, essential steps, latency quantiles) present and
// plausible for every row.
func TestBenchJSONOutput(t *testing.T) {
	// The recycle rows must show nodes going through retire lists onto free
	// lists. A quick row is short enough that one preempted pin on a loaded
	// box can stall every epoch of it, so (as lflstress's TestRunRecycleSmoke
	// does) take several rounds and fail only if the counter is dead in every
	// one; everything else is judged on the round that passed.
	const rounds = 4
	var text string
	var out benchJSON
	for r := 1; ; r++ {
		text, out = quickBench(t)
		dead := deadRecycleRow(out)
		if dead == nil {
			break
		}
		if r == rounds {
			t.Fatalf("%s/%d churn+rec: nodes_recycled dead in all %d rounds: %v",
				dead.Impl, dead.Threads, rounds, dead.Counters)
		}
	}
	if !strings.Contains(text, "== bench") || !strings.Contains(text, "fr-skiplist") {
		t.Fatalf("summary table malformed:\n%s", text)
	}
	if out.Schema != "lflbench/v1" {
		t.Fatalf("schema = %q", out.Schema)
	}
	// quick mode: 2 unsharded impls x 2 thread counts, uniform plus the
	// clustered per-key/batch pair and the churn recycle-off/on pair
	// (2*2 + 2*2*2 + 2*2*2), then the sharded sweep (2 shard counts x
	// 2 thread counts x per-key/batch): 20 + 8 rows.
	if len(out.Benchmarks) != 32 {
		t.Fatalf("rows = %d, want 32", len(out.Benchmarks))
	}
	batchRows, shardedRows := 0, 0
	// churnPair indexes the churn rows by impl/threads so the recycle row
	// can be judged against its control.
	type churnKey struct {
		impl    string
		threads int
	}
	churnOff := map[churnKey]benchRow{}
	churnOn := map[churnKey]benchRow{}
	for _, row := range out.Benchmarks {
		if row.Impl == "fr-sharded" {
			shardedRows++
			if row.Shards != 1 && row.Shards != 4 {
				t.Fatalf("sharded row with shards = %d", row.Shards)
			}
			// Every sharded operation routes through the splitter layer and
			// must be counted there, batched or not.
			if row.Counters["shard_ops"] == 0 {
				t.Fatalf("fr-sharded/%d/batch=%d: shard_ops not counted: %v",
					row.Threads, row.Batch, row.Counters)
			}
		} else if row.Shards != 0 {
			t.Fatalf("%s row with shards = %d", row.Impl, row.Shards)
		}
		switch row.Workload {
		case "uniform", "clustered":
			if row.Recycle {
				t.Fatalf("%s/%d: recycle row with workload %q", row.Impl, row.Threads, row.Workload)
			}
		case "churn":
			k := churnKey{row.Impl, row.Threads}
			if row.Recycle {
				churnOn[k] = row
				// The recycle row must show the machinery live: nodes went
				// through retire lists onto free lists, and inserts hit them.
				if row.Counters["nodes_recycled"] == 0 || row.Counters["freelist_hits"] == 0 {
					t.Fatalf("%s/%d churn+rec: recycling counters dead: %v",
						row.Impl, row.Threads, row.Counters)
				}
			} else {
				churnOff[k] = row
			}
		default:
			t.Fatalf("%s/%d: workload = %q", row.Impl, row.Threads, row.Workload)
		}
		if row.Batch > 0 {
			batchRows++
			if row.Workload == "churn" {
				t.Fatalf("%s/%d: batch row with workload %q", row.Impl, row.Threads, row.Workload)
			}
			// The batch rows go through the fingers: the finger counters
			// must be live, and on a sorted run - clustered or spread over
			// the whole key range - hits must dominate.
			if row.Counters["finger_hits"] == 0 {
				t.Fatalf("%s/%d/batch=%d: no finger hits: %v", row.Impl, row.Threads, row.Batch, row.Counters)
			}
			if row.Counters["finger_hits"] < row.Counters["finger_misses"] {
				t.Fatalf("%s/%d/batch=%d: finger hits %d < misses %d on a sorted run",
					row.Impl, row.Threads, row.Batch,
					row.Counters["finger_hits"], row.Counters["finger_misses"])
			}
		}
		if row.OpsPerSec <= 0 {
			t.Fatalf("%s/%d: ops_per_sec = %v", row.Impl, row.Threads, row.OpsPerSec)
		}
		if row.EssentialStepsPerOp <= 0 {
			t.Fatalf("%s/%d: essential_steps_per_op = %v", row.Impl, row.Threads, row.EssentialStepsPerOp)
		}
		if row.Counters["cas_attempts"] == 0 {
			t.Fatalf("%s/%d: counters missing: %v", row.Impl, row.Threads, row.Counters)
		}
		// The churn workload's per-thread key spans are disjoint and every
		// delete physically unlinks, so whether a measured-window search ever
		// advances its cursor past a lazily-reclaimed predecessor depends on
		// EBR batch timing — curr_updates legitimately reads 0 on some runs.
		// The uniform/clustered workloads traverse a stable populated prefix
		// and must always advance.
		if row.Workload != "churn" && row.Counters["curr_updates"] == 0 {
			t.Fatalf("%s/%d: counters missing: %v", row.Impl, row.Threads, row.Counters)
		}
		// Churn rows have no reads; their live quantile is insert's.
		latOp := "get"
		if row.Workload == "churn" {
			latOp = "insert"
		}
		get, ok := row.Latency[latOp]
		if !ok || get.Count == 0 {
			t.Fatalf("%s/%d: no %s latency: %v", row.Impl, row.Threads, latOp, row.Latency)
		}
		// Quantiles must be ordered and live whether the row recorded
		// exactly (uniform, period 1) or sampled (clustered rows).
		if get.P50NS <= 0 || get.P99NS < get.P50NS {
			t.Fatalf("%s/%d: quantiles p50=%d p99=%d", row.Impl, row.Threads, get.P50NS, get.P99NS)
		}
	}
	if batchRows != 10 {
		t.Fatalf("batch rows = %d, want 10", batchRows)
	}
	if shardedRows != 10 {
		t.Fatalf("sharded rows = %d, want 10", shardedRows)
	}
	// Every churn row pairs off, and recycling cuts allocations: at steady
	// state the recycle row's inserts come from the free lists, so its
	// allocs/op must sit strictly below the allocate-every-node control.
	if len(churnOff) != 4 || len(churnOn) != 4 {
		t.Fatalf("churn pairs: %d off / %d on rows, want 4 / 4", len(churnOff), len(churnOn))
	}
	for k, off := range churnOff {
		on, ok := churnOn[k]
		if !ok {
			t.Fatalf("%s/%d: churn control has no recycle row", k.impl, k.threads)
		}
		if on.AllocsPerOp >= off.AllocsPerOp {
			t.Fatalf("%s/%d churn: recycling did not cut allocs/op (%.3f with vs %.3f without)",
				k.impl, k.threads, on.AllocsPerOp, off.AllocsPerOp)
		}
	}
}

// TestRunBenchStageSelectable checks the bench stage is reachable through
// the -exp flag and honors -json.
func TestRunBenchStageSelectable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	if err := run([]string{"-exp", "bench", "-quick", "-json", path}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("bench stage did not write %s: %v", path, err)
	}
}

// TestProfileFlags checks -cpuprofile and -memprofile produce non-empty
// pprof files covering a run.
func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	err := run([]string{"-exp", "e2", "-quick", "-cpuprofile", cpu, "-memprofile", mem})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if st.Size() == 0 {
			t.Fatalf("%s is empty", p)
		}
	}
}
