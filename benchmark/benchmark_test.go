package main

import (
	"encoding/json"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func TestStreamsAreSeeded(t *testing.T) {
	hash := func(seed uint64, w libWorkload, client int) uint64 {
		return streamHash(newOpGen(streamSeed(seed, w.name, client), w.keys, w.m), 100_000)
	}
	for _, w := range []libWorkload{libRead, libChurn} {
		if hash(7, w, 0) != hash(7, w, 0) {
			t.Errorf("%s: the same seed gave two different streams", w.name)
		}
		if hash(7, w, 0) == hash(8, w, 0) {
			t.Errorf("%s: seeds 7 and 8 gave the same stream", w.name)
		}
		if hash(7, w, 0) == hash(7, w, 1) {
			t.Errorf("%s: clients 0 and 1 got the same stream", w.name)
		}
	}
	if hash(7, libRead, 0) == streamHash(newOpGen(streamSeed(7, "other", 0), libRead.keys, libRead.m), 100_000) {
		t.Error("two workloads got the same stream from one seed")
	}
}

func TestStreamMixAndWriteOwnership(t *testing.T) {
	const n, T = 200_000, 3
	for c := 0; c < T; c++ {
		g := newWireGen(1, "w", c, T, openMix)
		var kinds [4]int
		for i := 0; i < n; i++ {
			o := g.next()
			kinds[o.kind]++
			if o.key < 0 || o.key >= keySpace {
				t.Fatalf("key %d outside [0, %d)", o.key, keySpace)
			}
			if o.kind != opGet && o.key%T != c {
				t.Fatalf("client %d writes key %d, which client %d owns", c, o.key, o.key%T)
			}
		}
		for kind, want := range map[opKind]float64{opGet: 0.50, opInsert: 0.25, opDelete: 0.25} {
			if got := float64(kinds[kind]) / n; got < want-0.01 || got > want+0.01 {
				t.Errorf("client %d: kind %d is %.3f of the stream, want %.2f", c, kind, got, want)
			}
		}
	}
}

func TestPrefillOrderIsAPermutation(t *testing.T) {
	for _, keys := range []int{4096, keySpace} {
		order := newPrefillOrder(42, keys)
		seen := make([]bool, keys)
		for i := 0; i < order.len(); i++ {
			k := order.key(i)
			if k%2 != 0 || k < 0 || k >= keys || seen[k] {
				t.Fatalf("keys=%d: position %d gives key %d (odd, out of range or repeated)", keys, i, k)
			}
			seen[k] = true
		}
		if order.len() != keys/2 {
			t.Errorf("keys=%d: %d prefilled keys, want %d", keys, order.len(), keys/2)
		}
	}
}

func TestValueCheck(t *testing.T) {
	v := valueOf(123)
	if len(v) != valueLen || !valueOK(123, v) || !valueOK(123, []byte(v)) {
		t.Fatalf("valueOf(123) = %q does not check against its own key", v)
	}
	if valueOK(124, v) || valueOK(123, v[:valueLen-1]) || valueOK(123, v[:valueLen-1]+"!") {
		t.Error("valueOK accepted a wrong key, a short value or a corrupted value")
	}
}

func TestMedianAndPercentiles(t *testing.T) {
	if got := median([]float64{5, 1, 9}); got != 5 {
		t.Errorf("median of 3 = %v, want 5", got)
	}
	if got := median([]float64{4, 1, 9, 2}); got != 3 {
		t.Errorf("median of 4 = %v, want 3", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of none = %v, want 0", got)
	}
	sorted := make([]uint32, 1000)
	for i := range sorted {
		sorted[i] = uint32(i + 1)
	}
	// p99 of 1..1000 is 990, with exactly 10 samples beyond it: supported.
	if v, ok := percentile(sorted, 0.99); v != 990 || !ok {
		t.Errorf("p99 of 1..1000 = %v supported=%v, want 990 true", v, ok)
	}
	// p99.9 has one sample beyond it: reported but not supported.
	if v, ok := percentile(sorted, 0.999); v != 999 || ok {
		t.Errorf("p99.9 of 1..1000 = %v supported=%v, want 999 false", v, ok)
	}
	if v, ok := percentile(sorted[:999], 0.99); v != 990 || ok {
		t.Errorf("p99 of 1..999 = %v supported=%v, want 990 false (9 beyond)", v, ok)
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("a percentile of no samples was reported as supported")
	}
}

func TestWindowPercentilesTakeTheMedianWindow(t *testing.T) {
	// Three windows whose medians are 10, 20 and 1000: the reported p50 is
	// the median of the per-window p50s, not the p50 of the pooled samples.
	a, b := newLatBuf(3, 64), newLatBuf(3, 64)
	for w, v := range []int64{10, 20, 1000} {
		for i := 0; i < 32; i++ {
			a.record(w, v)
			b.record(w, v)
		}
	}
	med, n, ok := windowPercentiles([]*latBuf{a, b}, 0.5)
	if med[0] != 20 || n != 192 || !ok {
		t.Errorf("windowPercentiles = %v over %d samples supported=%v, want [20] 192 true", med, n, ok)
	}
	a.record(0, 1) // cap is 64 per window: 32 stored, room left
	full := newLatBuf(1, 2)
	for i := 0; i < 5; i++ {
		full.record(0, 7)
	}
	if len(full.win[0]) != 2 || full.dropped != 3 {
		t.Errorf("a full window stored %d and dropped %d, want 2 and 3", len(full.win[0]), full.dropped)
	}
}

func TestLadderTelescopes(t *testing.T) {
	// A middle layer cheaper than the one below it gets a negative self
	// time; the sum is still the top rung, exactly.
	rungs := []rung{{"core", 4_000_003, 1000}, {"sharded", 3_100_001, 1000}, {"lockfree", 3_300_007, 1000}}
	self := selfTimes(rungs)
	want := []int64{4_000_003, -900_002, 200_006}
	var sum int64
	for i := range self {
		if self[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", rungs[i].metric, self[i], want[i])
		}
		sum += self[i]
	}
	if sum != rungs[2].ns {
		t.Errorf("self times sum to %d, top rung is %d", sum, rungs[2].ns)
	}
	res := newResult(1, 0)
	ledger(&res, rungs, 3250, 3500)
	if got := res.get("ledger.top_rung_ns"); got != 3300.007 {
		t.Errorf("ledger.top_rung_ns = %v, want 3300.007", got)
	}
	if res.get("core")+res.get("sharded")+res.get("lockfree")-res.get("ledger.top_rung_ns") > 1e-9 {
		t.Error("published self times do not add up to the published top rung")
	}
}

func TestKeyModelChecksReplies(t *testing.T) {
	m := newKeyModel(2, 0, true) // owns the even keys, all prefilled
	val := []byte(valueOf(10))
	steps := []struct {
		o    op
		rp   reply
		want bool
	}{
		{op{opGet, 10}, reply{kind: '$', bulk: val}, true},
		{op{opGet, 10}, reply{kind: '_'}, false},            // own key, present: nil is wrong
		{op{opGet, 11}, reply{kind: '_'}, true},             // another connection's key: either state
		{op{opGet, 11}, reply{kind: '$', bulk: val}, false}, // ... but never another key's value
		{op{opDelete, 10}, reply{kind: ':', n: 1}, true},    // was present
		{op{opDelete, 10}, reply{kind: ':', n: 1}, false},   // now absent: must say 0
		{op{opGet, 10}, reply{kind: '$', bulk: val}, false}, // deleted: a value is wrong
		{op{opInsert, 10}, reply{kind: '+', text: []byte("OK")}, true},
		{op{opInsert, 10}, reply{kind: '-', text: []byte("ERR")}, false},
		{op{opGet, 10}, reply{kind: '$', bulk: val}, true},
	}
	for i, s := range steps {
		if got := m.check(s.o, s.rp); got != s.want {
			t.Errorf("step %d: check(%+v, kind %q) = %v, want %v", i, s.o, s.rp.kind, got, s.want)
		}
	}
	if got, want := m.count(), keySpace/2; got != want {
		t.Errorf("model holds %d keys, want %d", got, want)
	}
}

// benchmarkJSON mirrors the contract's shape of BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(raw))
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("BENCHMARK.json lacks %q", k)
		}
		delete(keys, k)
	}
	for k := range keys {
		t.Errorf("BENCHMARK.json has the extra key %q", k)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	used := map[string]bool{}
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q is not 1-64 of [A-Za-z0-9_.-] starting with a letter or digit", kind, n)
		}
		if used[n] {
			t.Errorf("name %q is used twice", n)
		}
		used[n] = true
	}

	if len(b.Workloads) < 2 || len(b.Workloads) > 8 {
		t.Errorf("%d workloads, want 2 to 8", len(b.Workloads))
	}
	if len(b.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code runs %d", len(b.Workloads), len(workloadNames))
	}
	for i, w := range b.Workloads {
		name("workload", w.Name)
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in the code", i, w.Name, workloadNames[i])
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of 1 to 200 characters, has %d", w.Name, len(w.Why))
		}
	}

	if len(b.EndToEnd) < 1 || len(b.EndToEnd) > 16 || len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the code, want 1 to 16 and equal", len(b.EndToEnd), len(endToEnd))
	}
	sawSetup := false
	for i, m := range b.EndToEnd {
		name("end-to-end", m.Name)
		s := endToEnd[i]
		if m.Bound == nil {
			t.Fatalf("end-to-end metric %s has no bound", m.Name)
		}
		if m.Name != s.name || m.Unit != s.unit || m.Better != s.better || *m.Bound != s.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %s/%s/%s/%v, the code %s/%s/%s/%v",
				i, m.Name, m.Unit, m.Better, *m.Bound, s.name, s.unit, s.better, s.bound)
		}
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bad unit %q, direction %q or bound %v", m.Name, m.Unit, m.Better, *m.Bound)
		}
		if m.Name == "setup_s" {
			sawSetup = m.Unit == "s" && m.Better == "lower"
			for _, o := range b.EndToEnd {
				if *o.Bound > *m.Bound {
					t.Errorf("setup_s must have the largest bound; %s has %v", o.Name, *o.Bound)
				}
			}
		}
	}
	if !sawSetup {
		t.Error("no setup_s metric in s, lower is better")
	}

	if len(b.PerLayer) < 1 || len(b.PerLayer) > 128 || len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the code, want 1 to 128 and equal", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		name("per-layer", m.Name)
		s := perLayer[i]
		if m.Name != s.name || m.Unit != s.unit || m.Better != s.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %s/%s/%s, the code %s/%s/%s", i, m.Name, m.Unit, m.Better, s.name, s.unit, s.better)
		}
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer metric %s: bad unit %q or direction %q", m.Name, m.Unit, m.Better)
		}
	}

	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, want 1 to 60", b.RunSeconds)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", b.Paths)
	}
	if len(b.Command) < 1 || len(b.Command) > 32 {
		t.Errorf("command has %d strings, want 1 to 32", len(b.Command))
	}
	for _, c := range b.Command {
		if len(c) > 200 || strings.HasPrefix(c, "/") || strings.Contains(c, "..") {
			t.Errorf("command string %q is too long, absolute or leaves the repo", c)
		}
	}
}

// Only the ladder's layer files may import internal packages, each its own
// layer (plus core for the Proc type every layer's calls carry), so that a
// later refactor of one layer can break one file here.
func TestOnlyLayerFilesImportInternals(t *testing.T) {
	allowed := map[string][]string{
		"ladder_core.go":     {"core"},
		"ladder_sharded.go":  {"sharded", "core"},
		"ladder_server.go":   {"server", "core"},
		"ladder_obs.go":      {"server", "telemetry"},
		"ladder_wal.go":      {"wal", "server", "telemetry"},
		"ladder_snapshot.go": {"snapshot"},
	}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		parsed, err := parser.ParseFile(token.NewFileSet(), f, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range parsed.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			pkg, internal := strings.CutPrefix(path, "repro/internal/")
			if !internal {
				if strings.HasPrefix(path, "repro/") && path != "repro/lockfree" {
					t.Errorf("%s imports %s; outside the ladder only repro/lockfree is allowed", f, path)
				}
				continue
			}
			ok := false
			for _, a := range allowed[f] {
				ok = ok || a == pkg
			}
			if !ok {
				t.Errorf("%s imports %s; its layer's packages are %v", f, path, allowed[f])
			}
		}
	}
}
