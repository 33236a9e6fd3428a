package server

import (
	"bufio"
	"fmt"
	"math/rand/v2"
	"net"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/telemetry"
	"repro/internal/wal"
	"repro/lockfree"
)

// countingStore wraps a Store and counts every call per method, so tests
// can pin exactly how a pipelined run hit the structure.
type countingStore struct {
	Store
	insert, get, delete             atomic.Int64
	insertBatch, getBatch, delBatch atomic.Int64
	getBatchKeys                    atomic.Int64 // keys over all GetBatch calls
}

func (s *countingStore) Insert(k int, v string) bool {
	s.insert.Add(1)
	return s.Store.Insert(k, v)
}
func (s *countingStore) Get(k int) (string, bool) {
	s.get.Add(1)
	return s.Store.Get(k)
}
func (s *countingStore) Delete(k int) bool {
	s.delete.Add(1)
	return s.Store.Delete(k)
}
func (s *countingStore) InsertBatch(items []core.KV[int, string], inserted []bool) int {
	s.insertBatch.Add(1)
	return s.Store.InsertBatch(items, inserted)
}
func (s *countingStore) GetBatch(keys []int, vals []string, found []bool) int {
	s.getBatch.Add(1)
	s.getBatchKeys.Add(int64(len(keys)))
	return s.Store.GetBatch(keys, vals, found)
}
func (s *countingStore) DeleteBatch(keys []int, deleted []bool) int {
	s.delBatch.Add(1)
	return s.Store.DeleteBatch(keys, deleted)
}

// pipeConn starts a server over one end of an in-memory pipe and returns
// the client end. The pipe is synchronous, so a single client Write lands
// in the reader's buffer whole — which is what makes coalescing
// deterministic enough to assert exact call counts.
func pipeConn(t *testing.T, srv *Server) (net.Conn, *bufio.Reader) {
	t.Helper()
	cl, se := net.Pipe()
	go srv.ServeConn(se)
	t.Cleanup(func() { cl.Close() })
	return cl, bufio.NewReader(cl)
}

func mustReadLine(t *testing.T, br *bufio.Reader) string {
	t.Helper()
	line, err := br.ReadString('\n')
	if err != nil {
		t.Fatalf("reading response: %v", err)
	}
	return strings.TrimSuffix(line, "\n")
}

// TestCoalesceSetsIntoOneInsertBatch is the determinism contract of the
// coalescer: a pipelined run of N SETs written in one piece produces
// exactly ONE InsertBatch call (no point Inserts), the cmds_coalesced
// counter absorbs all N commands, and the N responses come back in
// request order.
func TestCoalesceSetsIntoOneInsertBatch(t *testing.T) {
	const n = 32
	cs := &countingStore{Store: lockfree.NewSkipList[int, string]()}
	rec := telemetry.NewRecorder(1)
	srv := New(Config{MaxBatch: 64}, cs)
	srv.SetTelemetry(rec)
	cl, br := pipeConn(t, srv)

	// Descending keys: sorted batch order is the reverse of request
	// order, so in-order responses prove the inverse permutation works.
	var req strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&req, "SET %d v%d\n", n-i, n-i)
	}
	if _, err := cl.Write([]byte(req.String())); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if got := mustReadLine(t, br); got != ":1" {
			t.Fatalf("response %d = %q, want :1", i, got)
		}
	}

	if got := cs.insertBatch.Load(); got != 1 {
		t.Fatalf("InsertBatch calls = %d, want exactly 1", got)
	}
	if got := cs.insert.Load(); got != 0 {
		t.Fatalf("point Insert calls = %d, want 0", got)
	}
	if got := rec.Snapshot().Counters.CmdsCoalesced; got != n {
		t.Fatalf("cmds_coalesced = %d, want %d", got, n)
	}

	// Now a pipelined run of GETs with distinct values, again written in
	// one piece and in descending key order: one GetBatch call, responses
	// positionally correct for each requested key.
	req.Reset()
	for i := n; i >= 1; i-- {
		fmt.Fprintf(&req, "GET %d\n", i)
	}
	if _, err := cl.Write([]byte(req.String())); err != nil {
		t.Fatal(err)
	}
	for i := n; i >= 1; i-- {
		want := fmt.Sprintf("$v%d", i)
		if got := mustReadLine(t, br); got != want {
			t.Fatalf("GET %d response = %q, want %q", i, got, want)
		}
	}
	if got := cs.getBatch.Load(); got != 1 {
		t.Fatalf("GetBatch calls = %d, want exactly 1", got)
	}
	if got := cs.get.Load(); got != 0 {
		t.Fatalf("point Get calls = %d, want 0", got)
	}
	if got := rec.Snapshot().Counters.CmdsCoalesced; got != 2*n {
		t.Fatalf("cmds_coalesced = %d, want %d", got, 2*n)
	}
}

// TestCoalesceMixedRunSplitsByVerb: a mixed pipelined run coalesces each
// maximal same-verb stretch and executes the rest singly, and responses
// stay in request order across the seams.
func TestCoalesceMixedRunSplitsByVerb(t *testing.T) {
	cs := &countingStore{Store: lockfree.NewSkipList[int, string]()}
	srv := New(Config{MaxBatch: 64}, cs)
	cl, br := pipeConn(t, srv)

	req := "SET 5 a\nSET 3 b\nSET 4 c\nPING\nGET 3\nGET 9\nDEL 4\nLEN\n"
	want := []string{":1", ":1", ":1", "+PONG", "$b", "_", ":1", ":2"}
	if _, err := cl.Write([]byte(req)); err != nil {
		t.Fatal(err)
	}
	for i, w := range want {
		if got := mustReadLine(t, br); got != w {
			t.Fatalf("response %d = %q, want %q", i, got, w)
		}
	}
	if cs.insertBatch.Load() != 1 || cs.getBatch.Load() != 1 {
		t.Fatalf("batch calls = insert %d / get %d, want 1 / 1",
			cs.insertBatch.Load(), cs.getBatch.Load())
	}
	// The lone DEL must NOT go through a batch: a one-command "batch"
	// would only pay the finger setup for nothing.
	if cs.delBatch.Load() != 0 || cs.delete.Load() != 1 {
		t.Fatalf("DEL went through calls batch=%d point=%d, want 0/1",
			cs.delBatch.Load(), cs.delete.Load())
	}
}

// TestCoalesceDuplicateKeys: duplicate keys inside one coalesced run get
// exactly one success among them (insert-if-absent semantics), whichever
// request it lands on.
func TestCoalesceDuplicateKeys(t *testing.T) {
	cs := &countingStore{Store: lockfree.NewSkipList[int, string]()}
	srv := New(Config{MaxBatch: 64}, cs)
	cl, br := pipeConn(t, srv)

	if _, err := cl.Write([]byte("SET 7 a\nSET 7 b\nSET 7 c\nSET 8 d\n")); err != nil {
		t.Fatal(err)
	}
	wins := 0
	for i := 0; i < 3; i++ {
		switch got := mustReadLine(t, br); got {
		case ":1":
			wins++
		case ":0":
		default:
			t.Fatalf("response %d = %q", i, got)
		}
	}
	if wins != 1 {
		t.Fatalf("duplicate key got %d successful SETs, want exactly 1", wins)
	}
	if got := mustReadLine(t, br); got != ":1" {
		t.Fatalf("SET 8 = %q, want :1", got)
	}
}

// TestCoalesceRespectsMaxBatch: a run longer than MaxBatch splits into
// ceil(n/max) batch calls, never one oversized call.
func TestCoalesceRespectsMaxBatch(t *testing.T) {
	cs := &countingStore{Store: lockfree.NewSkipList[int, string]()}
	srv := New(Config{MaxBatch: 8}, cs)
	cl, br := pipeConn(t, srv)

	var req strings.Builder
	const n = 20 // 8 + 8 + 4
	for i := 0; i < n; i++ {
		fmt.Fprintf(&req, "SET %d v\n", i)
	}
	if _, err := cl.Write([]byte(req.String())); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if got := mustReadLine(t, br); got != ":1" {
			t.Fatalf("response %d = %q", i, got)
		}
	}
	if got := cs.insertBatch.Load(); got != 3 {
		t.Fatalf("InsertBatch calls = %d, want 3 (runs capped at MaxBatch)", got)
	}
}

// calls returns the store calls so far as "point insert/get/delete, batch
// insert/get/delete".
func (s *countingStore) calls() [6]int64 {
	return [6]int64{s.insert.Load(), s.get.Load(), s.delete.Load(), s.insertBatch.Load(), s.getBatch.Load(), s.delBatch.Load()}
}

// dialect lets one test body speak both wire dialects: cmd frames a
// request, read returns the next reply in the line dialect's spelling
// ("$v" a value, "_" a miss, ":1"/":0" a flag, "+OK"), and setOK is what
// a SET that took effect answers.
type dialect struct {
	name  string
	cmd   func(args ...string) string
	read  func(t *testing.T, br *bufio.Reader) string
	setOK string
}

var dialects = []dialect{
	{"line", func(args ...string) string { return strings.Join(args, " ") + "\n" }, mustReadLine, ":1"},
	{"resp", respCmd, func(t *testing.T, br *bufio.Reader) string {
		t.Helper()
		head := mustReadCRLF(t, br)
		switch {
		case head == "$-1":
			return "_"
		case strings.HasPrefix(head, "$"):
			return "$" + mustReadCRLF(t, br)
		}
		return head
	}, "+OK"},
}

// roundTrip writes the requests in one piece - one pipelined run - and
// returns their replies.
func (d dialect) roundTrip(t *testing.T, cl net.Conn, br *bufio.Reader, reqs ...[]string) []string {
	t.Helper()
	var b strings.Builder
	for _, r := range reqs {
		b.WriteString(d.cmd(r...))
	}
	if _, err := cl.Write([]byte(b.String())); err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(reqs))
	for i := range out {
		out[i] = d.read(t, br)
	}
	return out
}

// TestCoalesceInterleavedVerbsOneCallPerClass: verbs that alternate on
// different keys do not split a run any more. GET a, SET b, GET c, DEL d,
// GET e is one segment: its three GETs make one GetBatch, and the lone SET
// and the lone DEL - classes of one command - use the point methods.
// Replies come back in request order.
func TestCoalesceInterleavedVerbsOneCallPerClass(t *testing.T) {
	for _, d := range dialects {
		cs := &countingStore{Store: lockfree.NewSkipList[int, string]()}
		for _, k := range []int{1, 3, 4} {
			cs.Store.Insert(k, fmt.Sprintf("v%d", k))
		}
		cl, br := pipeConn(t, New(Config{}, cs))
		got := d.roundTrip(t, cl, br, []string{"GET", "1"}, []string{"SET", "2", "b"}, []string{"GET", "3"}, []string{"DEL", "4"}, []string{"GET", "5"})
		want := []string{"$v1", d.setOK, "$v3", ":1", "_"}
		if !slices.Equal(got, want) {
			t.Fatalf("%s: replies %q, want %q", d.name, got, want)
		}
		if got, want := cs.calls(), [6]int64{1, 0, 1, 0, 1, 0}; got != want {
			t.Fatalf("%s: store calls (point i/g/d, batch i/g/d) = %v, want %v", d.name, got, want)
		}
		if n := cs.getBatchKeys.Load(); n != 3 {
			t.Fatalf("%s: the GetBatch carried %d keys, want 3", d.name, n)
		}
		if v, ok := cs.Store.Get(2); !ok || v != "b" {
			t.Fatalf("%s: key 2 = %q, %t after the run", d.name, v, ok)
		}
	}
}

// TestCoalesceCutsWhereAKeyChangesVerb: the unit of ordering is the key.
// A key that recurs under another verb cuts the run there, so commands on
// one key take effect in request order, while same-verb repeats and other
// keys' commands ride along.
func TestCoalesceCutsWhereAKeyChangesVerb(t *testing.T) {
	for _, d := range dialects {
		cs := &countingStore{Store: lockfree.NewSkipList[int, string]()}
		cl, br := pipeConn(t, New(Config{}, cs))

		// The GET must see the SET before it.
		got := d.roundTrip(t, cl, br, []string{"SET", "5", "x"}, []string{"GET", "5"})
		if want := []string{d.setOK, "$x"}; !slices.Equal(got, want) {
			t.Fatalf("%s: SET 5 x, GET 5 answered %q, want %q", d.name, got, want)
		}
		if got, want := cs.calls(), [6]int64{1, 1, 0, 0, 0, 0}; got != want {
			t.Fatalf("%s: store calls = %v, want %v: two segments of one command", d.name, got, want)
		}

		// Value, deleted, miss: two cuts.
		got = d.roundTrip(t, cl, br, []string{"GET", "5"}, []string{"DEL", "5"}, []string{"GET", "5"})
		if want := []string{"$x", ":1", "_"}; !slices.Equal(got, want) {
			t.Fatalf("%s: GET 5, DEL 5, GET 5 answered %q, want %q", d.name, got, want)
		}

		// Cuts fall before GET 1 (after SET 1) and before GET 3 (after DEL 3,
		// itself after SET 3 in the segment before): three segments.
		before := cs.calls()
		got = d.roundTrip(t, cl, br, []string{"SET", "1", "a"}, []string{"GET", "2"}, []string{"SET", "3", "c"},
			[]string{"GET", "1"}, []string{"DEL", "3"}, []string{"GET", "3"})
		if want := []string{d.setOK, "_", d.setOK, "$a", ":1", "_"}; !slices.Equal(got, want) {
			t.Fatalf("%s: three-segment run answered %q, want %q", d.name, got, want)
		}
		after := cs.calls()
		for i := range after {
			after[i] -= before[i]
		}
		// {SET 1, GET 2, SET 3} {GET 1, DEL 3} {GET 3}
		if want := [6]int64{0, 3, 1, 1, 0, 0}; after != want {
			t.Fatalf("%s: three-segment run made store calls %v, want %v", d.name, after, want)
		}
	}
}

// TestCoalesceRandomRunsMatchRequestOrder: for one client, executing a run
// by classes is indistinguishable from executing it command by command -
// commands on different keys commute and commands on one key keep their
// order. Random runs over a few keys (so that most runs need cuts) must
// answer exactly what a map applied in request order answers. Same-verb
// repeats of a mutation on one key are left out of the runs: which of them
// wins is arbitrary by contract (TestCoalesceDuplicateKeys).
func TestCoalesceRandomRunsMatchRequestOrder(t *testing.T) {
	for _, d := range dialects {
		cs := &countingStore{Store: lockfree.NewShardedSkipList[int, string]([]int{8, 16, 24})}
		cl, br := pipeConn(t, New(Config{}, cs))
		model := map[int]string{}
		rng := rand.New(rand.NewPCG(19, uint64(len(d.name))))
		for run := 0; run < 300; run++ {
			n := 2 + rng.IntN(40)
			reqs := make([][]string, n)
			want := make([]string, n)
			last := map[int]string{} // the key's previous verb in this run
			for i := range reqs {
				k := rng.IntN(32)
				verb := [3]string{"GET", "SET", "DEL"}[rng.IntN(3)]
				if verb != "GET" && last[k] == verb {
					verb = "GET"
				}
				last[k] = verb
				key := fmt.Sprint(k)
				switch verb {
				case "GET":
					reqs[i], want[i] = []string{verb, key}, "_"
					if v, ok := model[k]; ok {
						want[i] = "$" + v
					}
				case "SET":
					v := fmt.Sprintf("r%di%d", run, i)
					reqs[i], want[i] = []string{verb, key, v}, d.setOK
					if _, ok := model[k]; !ok {
						model[k] = v
					} else if d.name == "line" {
						want[i] = ":0"
					}
				case "DEL":
					reqs[i], want[i] = []string{verb, key}, ":0"
					if _, ok := model[k]; ok {
						delete(model, k)
						want[i] = ":1"
					}
				}
			}
			if got := d.roundTrip(t, cl, br, reqs...); !slices.Equal(got, want) {
				t.Fatalf("%s run %d: %v\nanswered %q\nwant     %q", d.name, run, reqs, got, want)
			}
		}
		if got := cs.Store.Len(); got != len(model) {
			t.Fatalf("%s: store holds %d keys, the model %d", d.name, got, len(model))
		}
	}
}

// TestCoalesceLogsInRequestOrder: the classes of a segment execute in an
// order of their own, but the log records of a run are written with its
// replies, in request order - across the cuts and inside a segment - in
// both durability modes.
func TestCoalesceLogsInRequestOrder(t *testing.T) {
	for _, mode := range []string{DurabilityAsync, DurabilitySync} {
		dir := t.TempDir()
		l, err := wal.Open(wal.Options{Dir: dir, FsyncWindow: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		cs := &countingStore{Store: lockfree.NewSkipList[int, string]()}
		cs.Store.Insert(7, "seven")
		cl, br := pipeConn(t, New(Config{Durability: mode, WAL: l}, cs))
		got := dialects[0].roundTrip(t, cl, br,
			[]string{"SET", "9", "nine"}, []string{"DEL", "7"}, []string{"GET", "3"}, []string{"SET", "1", "a"}, []string{"DEL", "4"},
			[]string{"DEL", "1"}, []string{"SET", "2", "c"}, // cut: key 1 changes verb
			[]string{"SET", "1", "b"}, []string{"DEL", "2"}) // cut: key 1 again, and key 2
		if want := []string{":1", ":1", "_", ":1", ":0", ":1", ":1", ":1", ":1"}; !slices.Equal(got, want) {
			t.Fatalf("%s: replies %q, want %q", mode, got, want)
		}
		if mode == DurabilitySync && l.Durable() < l.LastLSN() {
			t.Fatalf("sync: replies read with Durable() = %d of %d", l.Durable(), l.LastLSN())
		}
		cl.Close()
		if err := l.WaitDurable(l.LastLSN()); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		want := []loggedRec{
			{wal.OpSet, 9, "nine"}, {wal.OpDel, 7, ""}, {wal.OpSet, 1, "a"},
			{wal.OpDel, 1, ""}, {wal.OpSet, 2, "c"},
			{wal.OpSet, 1, "b"}, {wal.OpDel, 2, ""},
		}
		if got := replayAll(t, dir); !slices.Equal(got, want) {
			t.Fatalf("%s: log holds %+v, want %+v", mode, got, want)
		}
	}
}
