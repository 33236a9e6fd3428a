package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/instrument"
	"repro/internal/telemetry"
	"repro/lockfree"
)

// startObsTCP is startTCP plus an attached Obs with the given config.
func startObsTCP(t *testing.T, cfg Config, ocfg ObsConfig, rec *telemetry.Recorder) (*Server, *Obs) {
	t.Helper()
	store := lockfree.NewSkipList[int, string]()
	srv := New(cfg, store)
	if rec != nil {
		srv.SetTelemetry(rec)
	}
	obs := NewObs(ocfg)
	srv.SetObs(obs)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	for i := 0; srv.Ready() != nil && i < 100; i++ {
		time.Sleep(time.Millisecond)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return srv, obs
}

// waitVerbCount polls until v's latency histogram holds exactly want
// observations. Overshoot fails immediately; only the flush-to-record
// window is forgiven.
func waitVerbCount(t *testing.T, obs *Obs, v Verb, want uint64) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		got := obs.VerbLatency(v).Count
		if got == want {
			return
		}
		if got > want || time.Now().After(deadline) {
			t.Fatalf("%s latency count = %d, want %d", v.Label(), got, want)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestObsEndToEnd(t *testing.T) {
	rec := telemetry.NewRecorder(1)
	srv, obs := startObsTCP(t, Config{}, ObsConfig{SampleEvery: 1}, rec)
	nc, br := dial(t, srv)

	// A pipelined burst of SETs plus point GETs and a PING; SampleEvery 1
	// traces every unit.
	var req strings.Builder
	const sets = 40
	for i := 0; i < sets; i++ {
		fmt.Fprintf(&req, "SET %d v%d\n", i, i)
	}
	if _, err := nc.Write([]byte(req.String())); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < sets; i++ {
		if line, err := br.ReadString('\n'); err != nil || line != ":1\n" {
			t.Fatalf("SET %d answered %q, %v", i, line, err)
		}
	}
	for _, cmd := range []string{"GET 7", "PING"} {
		if _, err := nc.Write([]byte(cmd + "\n")); err != nil {
			t.Fatal(err)
		}
		if _, err := br.ReadString('\n'); err != nil {
			t.Fatal(err)
		}
	}

	// Per-verb latency: every command recorded, whatever the coalescing.
	// Latency lands after the response flush, so the client can see a
	// reply a beat before the histogram does — poll, don't assert once.
	waitVerbCount(t, obs, VerbSet, sets)
	waitVerbCount(t, obs, VerbGet, 1)
	waitVerbCount(t, obs, VerbPing, 1)
	if obs.VerbLatency(VerbSet).Sum == 0 {
		t.Fatal("set latency sum is zero — latencies not measured")
	}
	if obs.QueueWait().Count == 0 {
		t.Fatal("queue-wait histogram empty")
	}

	// Traces: every unit sampled; SET units must carry exact attribution
	// (a skip-list insert performs at least one CAS).
	recs := obs.TraceSnapshot(0)
	if len(recs) == 0 {
		t.Fatal("no trace records")
	}
	var sawAttributedSet, sawPing bool
	for _, r := range recs {
		if !r.Sampled {
			t.Fatalf("unsampled record at SampleEvery=1: %+v", r)
		}
		if Verb(r.Verb) == VerbSet && r.CASAttempts > 0 && r.EssentialSteps > 0 {
			sawAttributedSet = true
		}
		if Verb(r.Verb) == VerbPing {
			sawPing = true
		}
	}
	if !sawAttributedSet {
		t.Fatalf("no SET trace with cas_attempts attribution: %+v", recs)
	}
	if !sawPing {
		t.Fatalf("PING unit not traced: %+v", recs)
	}
}

// TestObsPlainStoreTracesZeroSteps: a store without the *Proc methods is
// called through the same store calls, but its sampled traces report zero
// step counts rather than claiming exact ones.
func TestObsPlainStoreTracesZeroSteps(t *testing.T) {
	cs := &countingStore{Store: lockfree.NewSkipList[int, string]()}
	srv := New(Config{}, cs)
	obs := NewObs(ObsConfig{SampleEvery: 1})
	srv.SetObs(obs)
	cl, br := pipeConn(t, srv)

	// A batch of each verb, then a point command of each.
	if _, err := cl.Write([]byte("SET 1 a\nSET 2 b\nGET 1\nGET 2\nDEL 1\nDEL 2\nSET 3 c\nGET 3\nDEL 3\n")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 9; i++ {
		mustReadLine(t, br)
	}
	if got, want := cs.calls(), [6]int64{1, 1, 1, 1, 1, 1}; got != want {
		t.Fatalf("store calls = %v, want %v", got, want)
	}
	recs := obs.TraceSnapshot(0)
	if len(recs) != 6 {
		t.Fatalf("%d trace records, want 6: %+v", len(recs), recs)
	}
	for _, r := range recs {
		if r.CASAttempts != 0 || r.EssentialSteps != 0 {
			t.Fatalf("plain-store trace claims step counts: %+v", r)
		}
	}
}

func TestObsSlowCaptureAndCounter(t *testing.T) {
	rec := telemetry.NewRecorder(1)
	// SampleEvery huge + 1ns threshold: units are captured only via the
	// slow path, and every unit is slow.
	srv, obs := startObsTCP(t, Config{}, ObsConfig{SampleEvery: 1 << 20, SlowThreshold: time.Nanosecond}, rec)
	nc, br := dial(t, srv)
	if _, err := nc.Write([]byte("SET 1 x\nGET 1\n")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := br.ReadString('\n'); err != nil {
			t.Fatal(err)
		}
	}
	recs := obs.TraceSnapshot(0)
	if len(recs) == 0 {
		t.Fatal("slow units not captured")
	}
	for _, r := range recs {
		if !r.Slow {
			t.Fatalf("record not marked slow: %+v", r)
		}
		if r.Sampled {
			t.Fatalf("record marked sampled at SampleEvery=2^20: %+v", r)
		}
	}
	if got := rec.Snapshot().Counters.CmdsSlow; got == 0 {
		t.Fatal("cmds_slow counter not incremented")
	}
}

func TestObsKeyMasking(t *testing.T) {
	obs := NewObs(ObsConfig{KeyMaskBits: 8})
	obs.trace(VerbGet, 0x1234, 1, 10, 0, true, false, nil)
	recs := obs.TraceSnapshot(0)
	if len(recs) != 1 || recs[0].Key != 0x1200 {
		t.Fatalf("key prefix = %#x, want 0x1200", recs[0].Key)
	}
}

func TestObsPrometheusRendering(t *testing.T) {
	obs := NewObs(ObsConfig{})
	// Two classes of SET latency, one GET, batch sizes, queue waits.
	obs.recordLatency(VerbSet, 0, 1_500, 1)
	obs.recordLatency(VerbSet, 0, 900_000, 1)
	obs.recordLatency(VerbSet, 1, 40_000, 8)
	obs.recordLatency(VerbGet, 0, 2_000, 1)
	obs.recordBatch(VerbSet, 1)
	obs.recordBatch(VerbSet, 8)
	obs.recordBatch(VerbGet, 1)
	obs.recordQueueWait(5_000)

	var sb strings.Builder
	if err := obs.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()

	for _, want := range []string{
		"# TYPE lockfree_server_cmd_latency_seconds histogram",
		`lockfree_server_cmd_latency_seconds_count{verb="set",batch="1"} 2`,
		`lockfree_server_cmd_latency_seconds_count{verb="set",batch="2-15"} 8`,
		`lockfree_server_cmd_latency_seconds_count{verb="get",batch="1"} 1`,
		`lockfree_server_cmd_latency_seconds_bucket{verb="set",batch="1",le="+Inf"} 2`,
		`lockfree_server_cmd_batch_size_bucket{verb="set",le="+Inf"} 2`,
		"lockfree_server_queue_wait_seconds_count 1",
		"lockfree_server_trace_records_total 0",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	// No series for verbs without data.
	if strings.Contains(out, `verb="del"`) || strings.Contains(out, `verb="ping"`) {
		t.Fatalf("series rendered for idle verbs:\n%s", out)
	}
	// Sum in seconds: set/batch=1 saw 1500+900000 ns.
	if !strings.Contains(out, `lockfree_server_cmd_latency_seconds_sum{verb="set",batch="1"} 0.0009015`) {
		t.Fatalf("latency sum not in seconds:\n%s", out)
	}

	// Bucket series must be cumulative and end at +Inf == _count, per
	// (verb, class) series.
	assertCumulative(t, out, "lockfree_server_cmd_latency_seconds", `{verb="set",batch="1"`)
	assertCumulative(t, out, "lockfree_server_cmd_batch_size", `{verb="set"`)
}

// assertCumulative checks the le series of one histogram: counts never
// decrease and the final +Inf equals the _count sample.
func assertCumulative(t *testing.T, out, name, labelPrefix string) {
	t.Helper()
	var prev, last uint64
	var sawInf bool
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, name+"_bucket"+labelPrefix) {
			var v uint64
			if _, err := fmt.Sscanf(line[strings.LastIndexByte(line, ' ')+1:], "%d", &v); err != nil {
				t.Fatalf("bad bucket line %q: %v", line, err)
			}
			if v < prev {
				t.Fatalf("non-cumulative buckets at %q (%d < %d)", line, v, prev)
			}
			prev = v
			last = v
			sawInf = strings.Contains(line, `le="+Inf"`)
		}
	}
	if !sawInf {
		t.Fatalf("last %s%s bucket is not +Inf:\n%s", name, labelPrefix, out)
	}
	var count uint64
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, name+"_count"+labelPrefix) {
			fmt.Sscanf(line[strings.LastIndexByte(line, ' ')+1:], "%d", &count)
		}
	}
	if last != count {
		t.Fatalf("+Inf bucket %d != _count %d for %s%s", last, count, name, labelPrefix)
	}
}

func TestObsTraceHandler(t *testing.T) {
	obs := NewObs(ObsConfig{})
	var stats instrument.OpStats
	stats.CASAttempts = 3
	stats.FingerHits = 2
	stats.NextUpdates = 5
	obs.trace(VerbSet, 4096, 4, 1000, 200, true, false, &stats)
	obs.trace(VerbGet, 8192, 1, 50_000_000, 10, false, true, nil)

	rr := httptest.NewRecorder()
	obs.TraceHandler().ServeHTTP(rr, httptest.NewRequest("GET", "/debug/trace", nil))
	if ct := rr.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("content type %q", ct)
	}
	var got struct {
		Written  uint64 `json:"written"`
		Capacity int    `json:"capacity"`
		Records  []struct {
			Verb        string `json:"verb"`
			Sampled     bool   `json:"sampled"`
			Slow        bool   `json:"slow"`
			KeyPrefix   int64  `json:"key_prefix"`
			Batch       int64  `json:"batch"`
			WallNanos   int64  `json:"wall_ns"`
			QueueNanos  int64  `json:"queue_ns"`
			AgeNanos    int64  `json:"age_ns"`
			CASAttempts uint64 `json:"cas_attempts"`
			FingerHits  uint64 `json:"finger_hits"`
			Essential   uint64 `json:"essential_steps"`
		} `json:"records"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &got); err != nil {
		t.Fatalf("trace output not JSON: %v\n%s", err, rr.Body.String())
	}
	if got.Written != 2 || len(got.Records) != 2 {
		t.Fatalf("written/records = %d/%d", got.Written, len(got.Records))
	}
	// Newest first: the slow GET.
	if got.Records[0].Verb != "get" || !got.Records[0].Slow || got.Records[0].Sampled {
		t.Fatalf("record 0 wrong: %+v", got.Records[0])
	}
	r1 := got.Records[1]
	if r1.Verb != "set" || !r1.Sampled || r1.CASAttempts != 3 || r1.FingerHits != 2 ||
		r1.Essential != 8 || r1.Batch != 4 || r1.WallNanos != 1000 || r1.QueueNanos != 200 {
		t.Fatalf("record 1 wrong: %+v", r1)
	}
	if r1.AgeNanos < 0 {
		t.Fatalf("negative age: %+v", r1)
	}

	// ?n limits, bad n rejects.
	rr = httptest.NewRecorder()
	obs.TraceHandler().ServeHTTP(rr, httptest.NewRequest("GET", "/debug/trace?n=1", nil))
	if err := json.Unmarshal(rr.Body.Bytes(), &got); err != nil || len(got.Records) != 1 {
		t.Fatalf("n=1 gave %d records (%v)", len(got.Records), err)
	}
	rr = httptest.NewRecorder()
	obs.TraceHandler().ServeHTTP(rr, httptest.NewRequest("GET", "/debug/trace?n=bogus", nil))
	if rr.Code != 400 {
		t.Fatalf("bad n answered %d", rr.Code)
	}
}

func TestObsRecordingZeroAlloc(t *testing.T) {
	obs := NewObs(ObsConfig{})
	var stats instrument.OpStats
	stats.CASAttempts = 2
	if n := testing.AllocsPerRun(1000, func() { obs.recordLatency(VerbSet, 1, 12345, 4) }); n != 0 {
		t.Fatalf("recordLatency allocates %v/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { obs.recordBatch(VerbGet, 3) }); n != 0 {
		t.Fatalf("recordBatch allocates %v/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { obs.recordQueueWait(777) }); n != 0 {
		t.Fatalf("recordQueueWait allocates %v/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		obs.trace(VerbSet, 99, 4, 1000, 10, true, false, &stats)
	}); n != 0 {
		t.Fatalf("trace allocates %v/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { _ = obs.sampleNext() }); n != 0 {
		t.Fatalf("sampleNext allocates %v/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { _ = VerbRange.Label() }); n != 0 {
		t.Fatalf("Verb.Label allocates %v/op", n)
	}
}

// TestConnActiveGaugeNeverNegative hammers connection churn racing a
// shutdown and asserts the conn_active gauge can never be observed
// negative (a negative two's-complement level reads as a huge uint64) and
// lands exactly at zero once everything is closed. It pins two fixes:
// gauge updates land on one fixed telemetry cell instead of being striped
// (a striped gauge lets a snapshot sum the decrement's shard after
// missing a newer increment and report a level that never existed), and
// Shutdown waits on the connection set itself rather than a WaitGroup
// (a late ServeConn could Add concurrently with a Wait crossing zero —
// a WaitGroup reuse panic).
func TestConnActiveGaugeNeverNegative(t *testing.T) {
	rec := telemetry.NewRecorder(2)
	store := lockfree.NewSkipList[int, string]()
	srv := New(Config{DrainGrace: 10 * time.Millisecond, ReadTimeout: time.Second}, store)
	srv.SetTelemetry(rec)

	const half = int64(1) << 62
	checkLevel := func(at string) {
		if v := rec.Snapshot().Counters.ConnActive; int64(v) < 0 || v > uint64(half) {
			t.Errorf("conn_active negative (%d as uint64) %s", v, at)
		}
	}

	stop := make(chan struct{})
	var watcher sync.WaitGroup
	watcher.Add(1)
	go func() {
		defer watcher.Done()
		for {
			select {
			case <-stop:
				return
			default:
				checkLevel("during churn")
			}
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				client, server := net.Pipe()
				done := make(chan struct{})
				go func() {
					srv.ServeConn(server)
					close(done)
				}()
				bw := bufio.NewWriter(client)
				br := bufio.NewReader(client)
				fmt.Fprintf(bw, "SET %d x\n", g*1000+i)
				bw.Flush()
				br.ReadString('\n')
				if i%2 == 0 {
					// Race a client-side close against the server's reader.
					client.Close()
				} else {
					fmt.Fprintf(bw, "QUIT\n")
					bw.Flush()
					br.ReadString('\n')
					client.Close()
				}
				<-done
			}
		}(g)
	}
	wg.Wait()

	// Shutdown racing late ServeConn arrivals: a second wave begins as
	// shutdown sweeps.
	var late sync.WaitGroup
	for g := 0; g < 4; g++ {
		late.Add(1)
		go func(g int) {
			defer late.Done()
			for i := 0; i < 10; i++ {
				client, server := net.Pipe()
				var cw sync.WaitGroup
				cw.Add(1)
				go func() {
					defer cw.Done()
					srv.ServeConn(server)
				}()
				client.Close()
				cw.Wait()
			}
		}(g)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	late.Wait()
	close(stop)
	watcher.Wait()

	if v := rec.Snapshot().Counters.ConnActive; v != 0 {
		t.Fatalf("conn_active = %d after full drain, want 0", v)
	}
}
