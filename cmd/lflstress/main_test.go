package main

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/obshttp"
	ltel "repro/lockfree/telemetry"
)

// TestMain lets the test binary serve as -killrecover's child: the mode
// re-execs its own executable with -child-server.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-child-server" {
		if err := run(os.Args[1:]); err != nil {
			fmt.Fprintln(os.Stderr, "lflstress:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestKillRecover runs one short kill-and-recover round: a wal-sync child
// SIGKILLed mid-burst, restarted from its WAL, and its history, crash cut
// included, durably linearizable.
func TestKillRecover(t *testing.T) {
	out, err := runOutput(t, "-killrecover", "-threads", "2", "-ops", "600", "-keys", "16", "-rounds", "1")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "ok: killrecover passed 1 rounds") {
		t.Fatalf("output %q does not report the round passed", out)
	}
}

func TestNewCheckedKnownImpls(t *testing.T) {
	for _, impl := range []string{
		"fr-list", "fr-skiplist", "harris-list", "harris-skiplist",
		"valois-list", "noflag-list",
	} {
		d, err := newChecked(impl, 0, 16, false, nil, 1)
		if err != nil {
			t.Fatalf("%s: %v", impl, err)
		}
		if !d.insert(1) {
			t.Fatalf("%s: insert failed", impl)
		}
		if !d.search(1) {
			t.Fatalf("%s: search missed", impl)
		}
		if !d.remove(1) {
			t.Fatalf("%s: remove failed", impl)
		}
		if err := d.validate(); err != nil {
			t.Fatalf("%s: validate: %v", impl, err)
		}
	}
}

func TestNewCheckedUnknownImpl(t *testing.T) {
	if _, err := newChecked("btree", 0, 16, false, nil, 1); err == nil {
		t.Fatal("unknown implementation accepted")
	}
}

// TestRunShardedSmoke routes the per-key linearizability checker through
// the range-sharded map: with -keys spanning several shards the rounds
// exercise routing, splitter-boundary keys, and the quiescent structural
// check (which includes the routing invariant), and every history must
// still linearize — sharding has to be invisible to the checker.
func TestRunShardedSmoke(t *testing.T) {
	// About 30 ops per key per round, as in TestRunRecycleSmoke.
	err := run([]string{"-impl", "fr-skiplist", "-threads", "4", "-ops", "120",
		"-keys", "16", "-rounds", "2", "-shards", "4"})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRunShardedBatchSmoke combines -shards with -batch: sorted batches
// split into per-shard sub-runs, and each element is still checked
// individually.
func TestRunShardedBatchSmoke(t *testing.T) {
	err := run([]string{"-impl", "fr-skiplist", "-threads", "4", "-ops", "256",
		"-keys", "128", "-rounds", "2", "-shards", "4", "-batch", "16"})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRunShardedBadFlags checks -shards rejects non-skiplist
// implementations and non-power-of-two counts up front.
func TestRunShardedBadFlags(t *testing.T) {
	err := run([]string{"-impl", "fr-list", "-rounds", "1", "-shards", "4"})
	if err == nil || !strings.Contains(err.Error(), "fr-skiplist") {
		t.Fatalf("err = %v, want shards-impl error", err)
	}
	err = run([]string{"-impl", "fr-skiplist", "-rounds", "1", "-shards", "3"})
	if err == nil || !strings.Contains(err.Error(), "power of two") {
		t.Fatalf("err = %v, want power-of-two error", err)
	}
}

func TestRunSmoke(t *testing.T) {
	// About 25 ops per key per round, as in TestRunRecycleSmoke.
	err := run([]string{"-impl", "fr-list", "-threads", "4", "-ops", "100",
		"-keys", "16", "-rounds", "2"})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRunBatchSmoke drives both primary structures through the -batch
// mode: batches wide enough to span several fingers' worth of hops, a key
// space large enough to keep per-key segments checkable, and full
// linearizability checking of every batch element.
func TestRunBatchSmoke(t *testing.T) {
	for _, impl := range []string{"fr-list", "fr-skiplist"} {
		err := run([]string{"-impl", impl, "-threads", "4", "-ops", "256",
			"-keys", "128", "-rounds", "2", "-batch", "16"})
		if err != nil {
			t.Fatalf("%s: %v", impl, err)
		}
	}
}

// TestRunChecksDenseRounds: a batch of 64 operations on ONE key is 64
// operations that all overlap, and every round of such a run is checked,
// in library mode and over the wire alike: the run passes and counts all
// 2 x 64 operations as checked.
func TestRunChecksDenseRounds(t *testing.T) {
	for _, mode := range [][]string{{"-impl", "fr-skiplist"}, {"-server", "self"}} {
		out, err := runOutput(t, append(mode, "-threads", "1", "-ops", "64", "-keys", "1", "-rounds", "2", "-batch", "64")...)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if !strings.Contains(out, "2 rounds, 128 checked operations") {
			t.Fatalf("%v: output %q does not report 128 checked operations", mode, out)
		}
	}
}

// runOutput runs lflstress with args and returns what it printed.
func runOutput(t *testing.T, args ...string) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	stdout := os.Stdout
	os.Stdout = w
	err = run(args)
	os.Stdout = stdout
	w.Close()
	return <-out, err
}

// TestRoundFailedNamesReplay: a failing round's error keeps its cause and
// names the flags that replay that round's op streams.
func TestRoundFailedNamesReplay(t *testing.T) {
	cause := errors.New("not linearizable")
	err := roundFailed(3, 10, cause)
	if !errors.Is(err, cause) || !strings.Contains(err.Error(), "round 3 (replay with -seed 13 -rounds 1)") {
		t.Fatalf("err = %v", err)
	}
}

// TestRunBatchUnsupportedImpl checks -batch refuses implementations
// without a batch API instead of silently ignoring the flag.
func TestRunBatchUnsupportedImpl(t *testing.T) {
	err := run([]string{"-impl", "harris-list", "-rounds", "1", "-batch", "8"})
	if err == nil || !strings.Contains(err.Error(), "batch") {
		t.Fatalf("err = %v, want batch-unsupported error", err)
	}
}

// TestRunServerSelfSmoke is the end-to-end serving gate: several
// concurrent connections (one per worker) drive pipelined mixed workloads
// through a live TCP server, every history must linearize, and each
// round's graceful drain must complete with zero dropped in-flight
// responses. scripts/check.sh runs this under -race.
func TestRunServerSelfSmoke(t *testing.T) {
	err := run([]string{"-server", "self", "-threads", "6", "-ops", "300",
		"-keys", "64", "-rounds", "2", "-batch", "8", "-shards", "4"})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRunServerSelfWithTelemetry adds the observability path on top: the
// in-process server and its store share the recorder, so the run must
// count coalesced commands without disturbing the checking.
func TestRunServerSelfWithTelemetry(t *testing.T) {
	err := run([]string{"-server", "self", "-threads", "4", "-ops", "200",
		"-keys", "64", "-rounds", "2", "-batch", "8",
		"-telemetry-addr", "127.0.0.1:0", "-telemetry-every", "1"})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunServerBadShards(t *testing.T) {
	err := run([]string{"-server", "self", "-rounds", "1", "-shards", "3"})
	if err == nil || !strings.Contains(err.Error(), "power of two") {
		t.Fatalf("err = %v, want power-of-two error", err)
	}
}

// TestRunServerSelfOneKey: -server self serves a one-key range over its
// default single skip list, and an explicit -shards larger than -keys is
// a usage error, in-process or served.
func TestRunServerSelfOneKey(t *testing.T) {
	if err := run([]string{"-server", "self", "-threads", "2", "-ops", "10",
		"-keys", "1", "-rounds", "1", "-batch", "1"}); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-server", "self", "-keys", "2", "-shards", "4", "-rounds", "1"},
		{"-impl", "fr-skiplist", "-keys", "2", "-shards", "4", "-rounds", "1"},
	} {
		if err := run(args); err == nil || !strings.Contains(err.Error(), "exceeds -keys") {
			t.Fatalf("%v: err = %v, want a shards-exceed-keys usage error", args, err)
		}
	}
}

// TestRunRecycleSmoke drives the primary structures with EBR-backed node
// recycling live: small key space, heavy churn, so node identities repeat
// across the checked histories — point ops, batches, and the sharded
// routing layer all stay linearizable over reused memory.
func TestRunRecycleSmoke(t *testing.T) {
	// About 30 ops per key per round (4 x 120 over 16 keys) is churn
	// enough for node identities to repeat in every run, and keeps the
	// four runs of six rounds short.
	for _, args := range [][]string{
		{"-impl", "fr-list", "-threads", "4", "-ops", "120", "-keys", "16", "-rounds", "6", "-recycle"},
		{"-impl", "fr-skiplist", "-threads", "4", "-ops", "120", "-keys", "16", "-rounds", "6", "-recycle"},
		{"-impl", "fr-skiplist", "-threads", "4", "-ops", "256", "-keys", "128", "-rounds", "6", "-batch", "16", "-recycle"},
		{"-impl", "fr-skiplist", "-threads", "4", "-ops", "120", "-keys", "16", "-rounds", "6", "-shards", "4", "-recycle"},
	} {
		if err := run(args); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
	}
}

// TestRunRecycleServerSelf: the -server self store runs WithRecycling; the
// serving layer's coalesced batches execute over recycled nodes and every
// response still linearizes, with the drain completing cleanly.
func TestRunRecycleServerSelf(t *testing.T) {
	err := run([]string{"-server", "self", "-threads", "4", "-ops", "400",
		"-keys", "32", "-rounds", "2", "-batch", "8", "-recycle"})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRunRecycleBadFlags: -recycle refuses the baselines (no reclamation
// seam) and external servers (their store is not ours to configure).
func TestRunRecycleBadFlags(t *testing.T) {
	err := run([]string{"-impl", "harris-list", "-rounds", "1", "-recycle"})
	if err == nil || !strings.Contains(err.Error(), "-recycle") {
		t.Fatalf("err = %v, want recycle-impl error", err)
	}
	err = run([]string{"-server", "127.0.0.1:1", "-rounds", "1", "-recycle"})
	if err == nil || !strings.Contains(err.Error(), "self") {
		t.Fatalf("err = %v, want recycle-server error", err)
	}
}

func TestRunBadFlags(t *testing.T) {
	if err := run([]string{"-impl", "nope"}); err == nil ||
		!strings.Contains(err.Error(), "unknown -impl") {
		t.Fatalf("err = %v", err)
	}
}

// TestRunWithTelemetry exercises the full observability path: a run with
// -telemetry-addr must attach the recorder, serve the endpoints, and print
// per-interval deltas without disturbing the linearizability checking.
func TestRunWithTelemetry(t *testing.T) {
	err := run([]string{"-impl", "fr-skiplist", "-threads", "4", "-ops", "100",
		"-keys", "8", "-rounds", "2", "-telemetry-addr", "127.0.0.1:0",
		"-telemetry-every", "1"})
	if err != nil {
		t.Fatal(err)
	}
}

// TestTelemetryScrapeDuringStress is the acceptance check from the issue:
// scraping /metrics while a telemetry-attached structure is being hammered
// must show nonzero C&S attempts, backlink traversals, and latency buckets.
func TestTelemetryScrapeDuringStress(t *testing.T) {
	tel := ltel.New("stress-scrape", ltel.WithSampleEvery(1)).PublishExpvar()
	defer tel.Unregister()
	d, err := newChecked("fr-skiplist", 0, 16, false, tel, 1)
	if err != nil {
		t.Fatal(err)
	}
	bound, stop, err := obshttp.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	// Contended workload: concurrent deletes of shared keys force backlink
	// traversals.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 5000; i++ {
			k := i % 8
			d.insert(k)
			d.remove(k)
			d.search(k)
		}
	}()
	<-done

	body := httpGet(t, "http://"+bound+"/metrics")
	for _, want := range []string{
		`lockfree_cas_attempts_total{structure="stress-scrape"}`,
		`lockfree_ops_total{structure="stress-scrape",op="insert"}`,
		`lockfree_op_latency_seconds_bucket{structure="stress-scrape",op="insert",le=`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}
	s := tel.Snapshot()
	if s.Counters.CASAttempts == 0 {
		t.Fatalf("no C&S attempts recorded: %+v", s.Counters)
	}
	if vars := httpGet(t, "http://"+bound+"/debug/vars"); !strings.Contains(vars, `"lockfree:stress-scrape"`) {
		t.Fatal("/debug/vars missing the published instance")
	}
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestRoundSeedFixesTheShape: a round's seed reaches the structure's tower
// heights, so a round replayed with -seed S+R -rounds 1 runs over the
// failing round's shape, and another seed gives another shape.
func TestRoundSeedFixesTheShape(t *testing.T) {
	heights := func(shards int, seed uint64) []int {
		d, err := newChecked("fr-skiplist", shards, 1024, false, nil, seed)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 1024; k++ {
			d.insert(k)
		}
		if shards > 0 {
			return d.(frSharded).m.Shard(0).Heights()
		}
		return d.(frSkip).l.Heights()
	}
	for _, shards := range []int{0, 2} {
		if a, b := heights(shards, 5), heights(shards, 5); !slices.Equal(a, b) {
			t.Errorf("shards %d: seed 5 built heights %v, then %v", shards, a, b)
		}
		if a, b := heights(shards, 5), heights(shards, 6); slices.Equal(a, b) {
			t.Errorf("shards %d: seeds 5 and 6 both built heights %v", shards, a)
		}
	}
}
