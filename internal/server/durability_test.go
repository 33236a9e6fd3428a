package server

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/history"
	"repro/internal/snapshot"
	"repro/internal/wal"
	"repro/lockfree"
)

type loggedRec struct {
	op  wal.Op
	key int64
	val string
}

func replayAll(t *testing.T, dir string) []loggedRec {
	t.Helper()
	l, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		t.Fatalf("reopen WAL: %v", err)
	}
	defer l.Close()
	var out []loggedRec
	if _, err := l.Replay(0, func(op wal.Op, seq uint64, key int64, val []byte) error {
		out = append(out, loggedRec{op: op, key: key, val: string(val)})
		return nil
	}); err != nil {
		t.Fatalf("replay: %v", err)
	}
	return out
}

// TestDurabilityLogsAppliedMutationsOnly drives single commands, a
// pipelined coalesced batch, and no-op duplicates through a wal-async
// server and asserts the log holds exactly the applied mutations, in
// this connection's program order.
func TestDurabilityLogsAppliedMutationsOnly(t *testing.T) {
	dir := t.TempDir()
	l, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Durability: DurabilityAsync, WAL: l}, lockfree.NewSkipList[int, string]())
	cl, br := pipeConn(t, srv)

	send := func(cmds string, replies int) {
		t.Helper()
		if _, err := cl.Write([]byte(cmds)); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < replies; i++ {
			mustReadLine(t, br)
		}
	}
	send("SET 1 one\n", 1)
	send("SET 1 dup\n", 1)    // duplicate: applied=false, must not log
	send("DEL 2\n", 1)        // miss: must not log
	send("DEL 1\nDEL 1\n", 2) // second DEL is a miss
	// One pipelined write -> one coalesced InsertBatch; 5 and 6 apply,
	// the repeated 5 does not.
	send("SET 5 five\nSET 6 six\nSET 5 again\n", 3)

	cl.Close()
	if err := l.WaitDurable(l.LastLSN()); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	want := []loggedRec{
		{wal.OpSet, 1, "one"},
		{wal.OpDel, 1, ""},
		{wal.OpSet, 5, "five"},
		{wal.OpSet, 6, "six"},
	}
	got := replayAll(t, dir)
	if len(got) != len(want) {
		t.Fatalf("log holds %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("log[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestDurabilitySyncAckImpliesDurable: in wal-sync mode a reply the
// client has read implies the mutation is already fsync-durable — even
// mid-connection, with a long group-commit window that would otherwise
// delay the fsync.
func TestDurabilitySyncAckImpliesDurable(t *testing.T) {
	dir := t.TempDir()
	l, err := wal.Open(wal.Options{Dir: dir, FsyncWindow: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	srv := New(Config{Durability: DurabilitySync, WAL: l}, lockfree.NewSkipList[int, string]())
	cl, br := pipeConn(t, srv)

	for i := 1; i <= 3; i++ {
		if _, err := cl.Write([]byte(fmt.Sprintf("SET %d v%d\n", i, i))); err != nil {
			t.Fatal(err)
		}
		if got := mustReadLine(t, br); got != ":1" {
			t.Fatalf("SET %d = %q", i, got)
		}
		if d := l.Durable(); d < uint64(i) {
			t.Fatalf("ack for LSN %d read but Durable() = %d", i, d)
		}
	}
}

// TestDurabilitySyncFailedLogDropsConnection: once the log has failed,
// a wal-sync connection can no longer honor an ack, so it is dropped
// instead of answering. The failure is a segment rotation that cannot
// create its file: every record after the first needs a new segment, and
// the path of the second is taken by a directory.
func TestDurabilitySyncFailedLogDropsConnection(t *testing.T) {
	dir := t.TempDir()
	l, err := wal.Open(wal.Options{Dir: dir, SegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := os.Mkdir(filepath.Join(dir, fmt.Sprintf("wal-%016d.seg", 2)), 0o755); err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Durability: DurabilitySync, WAL: l}, lockfree.NewSkipList[int, string]())
	cl, br := pipeConn(t, srv)

	if _, err := cl.Write([]byte("SET 1 one\n")); err != nil {
		t.Fatal(err)
	}
	if got := mustReadLine(t, br); got != ":1" {
		t.Fatalf("SET 1 = %q before the failure", got)
	}
	if _, err := cl.Write([]byte("SET 2 two\n")); err != nil {
		t.Fatal(err)
	}
	cl.SetReadDeadline(time.Now().Add(5 * time.Second))
	if line, err := br.ReadString('\n'); err != io.EOF {
		t.Fatalf("SET 2 after the log failed: read %q, %v; want the connection dropped (EOF)", line, err)
	}
	if l.Err() == nil {
		t.Fatal("the log latched no failure")
	}
}

// parkedSetStore parks the first SET of key after its Insert has applied
// and before the server gets to log it: it closes applied and waits for
// release.
type parkedSetStore struct {
	Store
	key     int
	applied chan struct{}
	release chan struct{}
}

func (s *parkedSetStore) Insert(k int, v string) bool {
	ok := s.Store.Insert(k, v)
	if k == s.key && s.applied != nil {
		close(s.applied)
		s.applied = nil
		<-s.release
	}
	return ok
}

// TestDurabilityCrossConnectionRaceResurrects reproduces the log-order
// race of DESIGN.md Section 13 under wal-sync. Connection A's SET k
// applies and parks before its reply site, where it would log; connection
// B's DEL k then applies, logs and is acked. A is released and acked too,
// so the log holds DEL before SET, the opposite of the apply order. After
// a crash, recovery replays it to k present, a state no client saw after
// both acks, and the history checker rejects the read that finds it.
// Ordering each key's appends at the apply site (ROADMAP item 2(a))
// flips this assertion.
func TestDurabilityCrossConnectionRaceResurrects(t *testing.T) {
	const k = 7
	dir := t.TempDir()
	l, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	store := &parkedSetStore{Store: lockfree.NewSkipList[int, string](), key: k,
		applied: make(chan struct{}), release: make(chan struct{})}
	applied := store.applied
	srv := New(Config{Durability: DurabilitySync, WAL: l}, store)
	clA, brA := pipeConn(t, srv)
	clB, brB := pipeConn(t, srv)
	rec := history.NewRecorder(3, 1)
	a, b, reader := rec.Thread(0), rec.Thread(1), rec.Thread(2)

	set := a.Begin(history.KindInsert, k)
	if _, err := clA.Write([]byte(fmt.Sprintf("SET %d a\n", k))); err != nil {
		t.Fatal(err)
	}
	<-applied
	del := b.Begin(history.KindDelete, k)
	if _, err := clB.Write([]byte(fmt.Sprintf("DEL %d\n", k))); err != nil {
		t.Fatal(err)
	}
	if got := mustReadLine(t, brB); got != ":1" {
		t.Fatalf("DEL = %q, want :1", got)
	}
	b.End(del, true)
	close(store.release)
	if got := mustReadLine(t, brA); got != ":1" {
		t.Fatalf("SET = %q, want :1", got)
	}
	a.End(set, true)

	// Crash: both acks are fsynced (wal-sync), so stop and recover.
	clA.Close()
	clB.Close()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	recovered := lockfree.NewSkipList[int, string]()
	l2, _, err := snapshot.Recover(dir, wal.Options{},
		func(k int64, v string) bool { return recovered.Insert(int(k), v) },
		func(k int64) { recovered.Delete(int(k)) })
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	read := reader.Begin(history.KindSearch, k)
	_, found := recovered.Get(k)
	reader.End(read, found)

	var v *history.Violation
	if err := history.Check(rec.Ops()); !errors.As(err, &v) || v.Key != k {
		t.Fatalf("Check = %v, want a *Violation on key %d", err, k)
	}
}

// BenchmarkServerWireDurable prices the write-ahead log on the wire path:
// durability off, async and sync at pipeline depth 1 and 16, under
// lflserver's default 2 ms group-commit window. Commands alternate SET k
// and DEL k, so every one applies and therefore logs - a duplicate SET
// applies nothing and logs nothing - and each pair of requests leaves the
// store empty again. cmds/s counts commands, not exchanges.
func BenchmarkServerWireDurable(b *testing.B) {
	for _, mode := range []string{DurabilityOff, DurabilityAsync, DurabilitySync} {
		for _, depth := range []int{1, 16} {
			b.Run(fmt.Sprintf("%s/d%d", mode, depth), func(b *testing.B) {
				cfg := Config{Durability: mode}
				if mode != DurabilityOff {
					l, err := wal.Open(wal.Options{Dir: b.TempDir(), FsyncWindow: 2 * time.Millisecond})
					if err != nil {
						b.Fatal(err)
					}
					b.Cleanup(func() { l.Close() })
					cfg.WAL = l
				}
				var reqs [2]strings.Builder
				for c := 0; c < 2*depth; c++ {
					if c%2 == 0 {
						fmt.Fprintf(&reqs[c/depth], "SET %d valuevaluevalue\n", c/2)
					} else {
						fmt.Fprintf(&reqs[c/depth], "DEL %d\n", c/2)
					}
				}
				benchWire(b, cfg, depth*len(":1\n"), reqs[0].String(), reqs[1].String())
				b.ReportMetric(float64(b.N*depth)/b.Elapsed().Seconds(), "cmds/s")
			})
		}
	}
}
