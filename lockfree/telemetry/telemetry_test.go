package telemetry

import (
	"bytes"
	"encoding/json"
	"expvar"
	"flag"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/instrument"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fill feeds a deterministic workload into t's recorder: fixed step
// counts and fixed (injected, not measured) latencies, so the rendered
// output is byte-stable.
func fill(t *Telemetry) {
	rec := t.Recorder()
	rec.RecordOp(OpInsert, &instrument.OpStats{
		CASAttempts: 4, CASSuccesses: 2, BacklinkTraversals: 3,
		NextUpdates: 10, CurrUpdates: 8, HelpCalls: 1,
	}, 3*time.Microsecond)
	rec.RecordOp(OpGet, &instrument.OpStats{
		NextUpdates: 5, CurrUpdates: 5,
	}, 400*time.Nanosecond)
	rec.RecordOp(OpDelete, &instrument.OpStats{
		CASAttempts: 9, CASSuccesses: 3, BacklinkTraversals: 2,
		NextUpdates: 4, CurrUpdates: 4, HelpCalls: 2,
	}, 80*time.Microsecond)
	rec.RecordOp(OpAscend, nil, 2*time.Millisecond)
}

func TestPrometheusGolden(t *testing.T) {
	tel := New("golden")
	defer tel.Unregister()
	fill(tel)

	var buf bytes.Buffer
	if err := WriteMetrics(&buf, tel); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "prometheus.golden")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("prometheus output drifted from golden file (run go test ./lockfree/telemetry -update to regenerate)\n--- got ---\n%s", buf.String())
	}
}

func TestPrometheusHistogramInvariants(t *testing.T) {
	tel := New("hist-inv")
	defer tel.Unregister()
	fill(tel)
	var buf bytes.Buffer
	if err := WriteMetrics(&buf, tel); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// Every histogram's +Inf bucket must equal its _count series; spot-check
	// the insert latency histogram.
	if !strings.Contains(out, `lockfree_op_latency_seconds_bucket{structure="hist-inv",op="insert",le="+Inf"} 1`) {
		t.Fatalf("+Inf bucket missing or wrong:\n%s", out)
	}
	if !strings.Contains(out, `lockfree_op_latency_seconds_count{structure="hist-inv",op="insert"} 1`) {
		t.Fatalf("count series missing:\n%s", out)
	}
	// The acceptance-critical counters must be present with their exact
	// names.
	for _, name := range []string{
		"lockfree_cas_attempts_total", "lockfree_backlink_traversals_total",
	} {
		if !strings.Contains(out, name+`{structure="hist-inv"} `) {
			t.Fatalf("counter %s missing:\n%s", name, out)
		}
	}
}

// TestPrometheusRetriesZeroCell: the retry histogram keeps the
// contention-free cut. An op whose samples all had zero failed C&S
// renders le="0" equal to its _count, rather than folding "no retry" into
// the octave up to 15.
func TestPrometheusRetriesZeroCell(t *testing.T) {
	tel := New("retry-zero")
	defer tel.Unregister()
	for i := 0; i < 5; i++ {
		tel.Recorder().RecordOp(OpGet, &instrument.OpStats{CASAttempts: 2, CASSuccesses: 2}, time.Microsecond)
	}
	tel.Recorder().RecordOp(OpInsert, &instrument.OpStats{CASAttempts: 3, CASSuccesses: 1}, time.Microsecond)
	var buf bytes.Buffer
	if err := WriteMetrics(&buf, tel); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, line := range []string{
		`lockfree_op_retries_bucket{structure="retry-zero",op="get",le="0"} 5`,
		`lockfree_op_retries_count{structure="retry-zero",op="get"} 5`,
		`lockfree_op_retries_bucket{structure="retry-zero",op="insert",le="2"} 1`,
	} {
		if !strings.Contains(out, line+"\n") {
			t.Fatalf("missing %q in:\n%s", line, out)
		}
	}
	if strings.Contains(out, `op="insert",le="0"`) {
		t.Fatalf("an op with retries rendered a le=\"0\" bucket:\n%s", out)
	}
}

func TestHTTPHandlers(t *testing.T) {
	a := New("handler-a")
	defer a.Unregister()
	b := New("handler-b")
	defer b.Unregister()
	fill(a)

	// Per-instance handler serves only its own structure label.
	rr := httptest.NewRecorder()
	a.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rr.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	body := rr.Body.String()
	if !strings.Contains(body, `structure="handler-a"`) || strings.Contains(body, `structure="handler-b"`) {
		t.Fatalf("per-instance handler body wrong:\n%s", body)
	}

	// Package handler serves every registered instance.
	rr = httptest.NewRecorder()
	Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	body = rr.Body.String()
	if !strings.Contains(body, `structure="handler-a"`) || !strings.Contains(body, `structure="handler-b"`) {
		t.Fatalf("package handler body wrong:\n%s", body)
	}
}

func TestExpvarRoundTrip(t *testing.T) {
	tel := New("expvar-rt")
	defer tel.Unregister()
	tel.PublishExpvar()
	tel.PublishExpvar() // idempotent, must not panic
	fill(tel)

	v := expvar.Get("lockfree:expvar-rt")
	if v == nil {
		t.Fatal("expvar not published")
	}
	var decoded struct {
		Counters map[string]uint64 `json:"counters"`
		Ops      map[string]struct {
			Count        uint64 `json:"count"`
			LatencySumNS uint64 `json:"latency_sum_ns"`
			P99          int64  `json:"latency_p99_ns"`
		} `json:"ops"`
		EssentialSteps uint64 `json:"essential_steps_total"`
		OpsTotal       uint64 `json:"ops_total"`
	}
	if err := json.Unmarshal([]byte(v.String()), &decoded); err != nil {
		t.Fatalf("expvar output is not JSON: %v\n%s", err, v.String())
	}
	if decoded.Counters["cas_attempts"] != 13 || decoded.Counters["backlink_traversals"] != 5 {
		t.Fatalf("counters wrong: %+v", decoded.Counters)
	}
	if decoded.Ops["insert"].Count != 1 || decoded.Ops["insert"].LatencySumNS != 3000 {
		t.Fatalf("insert op wrong: %+v", decoded.Ops["insert"])
	}
	if decoded.OpsTotal != 4 {
		t.Fatalf("ops_total = %d", decoded.OpsTotal)
	}
	// essential = cas_attempts(13) + backlinks(5) + next(19) + curr(17) = 54
	if decoded.EssentialSteps != 54 {
		t.Fatalf("essential_steps_total = %d", decoded.EssentialSteps)
	}
	// A fresh sample changes the published value: expvar serves live data.
	tel.Recorder().RecordOp(OpGet, nil, time.Microsecond)
	if !strings.Contains(expvar.Get("lockfree:expvar-rt").String(), `"ops_total":5`) {
		t.Fatalf("expvar did not track new ops: %s", expvar.Get("lockfree:expvar-rt").String())
	}
}

func TestRegistryNames(t *testing.T) {
	tel := New("dup-name")
	defer tel.Unregister()
	mustPanic(t, func() { New("dup-name") })
	mustPanic(t, func() { New("") })
	// After Unregister the name is reusable.
	tel2 := New("dup-name-2")
	tel2.Unregister()
	tel3 := New("dup-name-2")
	tel3.Unregister()
}

func mustPanic(t *testing.T, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	fn()
}

func TestSnapshotAndDelta(t *testing.T) {
	tel := New("snap-delta")
	defer tel.Unregister()
	fill(tel)
	s := tel.Snapshot()
	if s.TotalOps() != 4 {
		t.Fatalf("TotalOps = %d", s.TotalOps())
	}
	d := tel.Delta()
	if d.TotalOps() != 4 {
		t.Fatalf("first Delta = %d ops", d.TotalOps())
	}
	if d2 := tel.Delta(); d2.TotalOps() != 0 {
		t.Fatalf("idle Delta = %d ops", d2.TotalOps())
	}
}
