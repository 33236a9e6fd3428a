package server

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/instrument"
	"repro/internal/telemetry"
	"repro/lockfree"
)

func startTCP(t *testing.T, cfg Config, store Store, rec *telemetry.Recorder) *Server {
	t.Helper()
	srv := New(cfg, store)
	if rec != nil {
		srv.SetTelemetry(rec)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	// Serve publishes readiness after adopting the listener.
	for i := 0; srv.Ready() != nil && i < 100; i++ {
		time.Sleep(time.Millisecond)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return srv
}

func dial(t *testing.T, srv *Server) (net.Conn, *bufio.Reader) {
	t.Helper()
	nc, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	return nc, bufio.NewReader(nc)
}

func TestServerPointAndRange(t *testing.T) {
	srv := startTCP(t, Config{}, lockfree.NewShardedSkipList[int, string](lockfree.EqualSplitters(0, 100, 4)), nil)
	nc, br := dial(t, srv)

	send := func(s string) { // one command at a time: the un-pipelined path
		if _, err := nc.Write([]byte(s + "\n")); err != nil {
			t.Fatal(err)
		}
	}
	expect := func(want string) {
		t.Helper()
		if got := mustReadLine(t, br); got != want {
			t.Fatalf("got %q, want %q", got, want)
		}
	}

	send("PING")
	expect("+PONG")
	send("SET 10 ten")
	expect(":1")
	send("SET 10 ten-again")
	expect(":0") // insert-if-absent: values are immutable
	send("SET 20 twenty")
	expect(":1")
	send("SET 90 ninety")
	expect(":1")
	send("GET 10")
	expect("$ten")
	send("GET 11")
	expect("_")
	send("LEN")
	expect(":3")
	send("RANGE 10 90") // [lo, hi): 90 excluded
	expect("*2")
	expect("10 ten")
	expect("20 twenty")
	send("RANGE 5 4")
	expect("*0")
	send("DEL 20")
	expect(":1")
	send("DEL 20")
	expect(":0")
	send("BLORP")
	expect(`-ERR unknown command "BLORP"`)
	send("GET abc")
	expect(`-ERR key "abc" is not a signed 64-bit integer`)
	send("QUIT")
	expect("+OK")
	if _, err := br.ReadByte(); err == nil {
		t.Fatal("connection still open after QUIT")
	}
}

// TestServerOversizedInputFailsRequestNotProcess: an overlong line and an
// oversized RANGE each answer -ERR, and the same connection keeps
// serving afterwards.
func TestServerOversizedInputFailsRequestNotProcess(t *testing.T) {
	store := lockfree.NewSkipList[int, string]()
	for i := 0; i < 50; i++ {
		store.Insert(i, "v")
	}
	srv := startTCP(t, Config{MaxLineBytes: 128, MaxRange: 10}, store, nil)
	nc, br := dial(t, srv)

	long := "SET 1 " + strings.Repeat("x", 4096) + "\nPING\n"
	if _, err := nc.Write([]byte(long)); err != nil {
		t.Fatal(err)
	}
	if got := mustReadLine(t, br); !strings.HasPrefix(got, "-ERR ") {
		t.Fatalf("overlong line answered %q, want -ERR", got)
	}
	if got := mustReadLine(t, br); got != "+PONG" {
		t.Fatalf("connection dead after overlong line: %q", got)
	}

	if _, err := nc.Write([]byte("RANGE 0 50\nLEN\n")); err != nil {
		t.Fatal(err)
	}
	if got := mustReadLine(t, br); !strings.HasPrefix(got, "-ERR range result exceeds") {
		t.Fatalf("oversized range answered %q", got)
	}
	if got := mustReadLine(t, br); got != ":50" {
		t.Fatalf("connection dead after oversized range: %q", got)
	}
}

// TestServerConnectionCapSheds: connections beyond MaxConns are refused at
// accept time with an error line, and counted as conn_rejected.
func TestServerConnectionCapSheds(t *testing.T) {
	rec := telemetry.NewRecorder(1)
	srv := startTCP(t, Config{MaxConns: 1}, lockfree.NewSkipList[int, string](), rec)

	nc1, br1 := dial(t, srv)
	nc1.Write([]byte("PING\n"))
	if got := mustReadLine(t, br1); got != "+PONG" {
		t.Fatalf("first connection: %q", got)
	}

	_, br2 := dial(t, srv)
	if got := mustReadLine(t, br2); got != "-ERR server busy" {
		t.Fatalf("second connection got %q, want -ERR server busy", got)
	}
	if _, err := br2.ReadByte(); err == nil {
		t.Fatal("shed connection left open")
	}

	s := rec.Snapshot().Counters
	if s.ConnRejected != 1 || s.ConnAccepted != 1 || s.ConnActive != 1 {
		t.Fatalf("counters accepted=%d active=%d rejected=%d, want 1/1/1",
			s.ConnAccepted, s.ConnActive, s.ConnRejected)
	}

	// Freeing the slot re-admits new connections.
	nc1.Write([]byte("QUIT\n"))
	mustReadLine(t, br1)
	deadline := time.Now().Add(2 * time.Second)
	for {
		nc3, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		br3 := bufio.NewReader(nc3)
		nc3.Write([]byte("PING\n"))
		got, _ := br3.ReadString('\n')
		nc3.Close()
		if strings.TrimSuffix(got, "\n") == "+PONG" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slot never freed; last response %q", got)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServerIdleTimeout: a connection that sends nothing is closed once
// ReadTimeout elapses.
func TestServerIdleTimeout(t *testing.T) {
	srv := startTCP(t, Config{ReadTimeout: 50 * time.Millisecond}, lockfree.NewSkipList[int, string](), nil)
	nc, br := dial(t, srv)
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := br.ReadByte(); err == nil {
		t.Fatal("idle connection not closed")
	}
}

// TestServerGracefulDrain is the end-to-end shutdown gate: several
// connections with pipelined mixed workloads in flight, Shutdown begins
// after every client's final pipeline is on the wire, and every command
// sent still receives a response — zero dropped in-flight responses —
// before the connections close. Run under -race by scripts/check.sh.
func TestServerGracefulDrain(t *testing.T) {
	const (
		clients   = 6
		pipelines = 8
		plen      = 16
	)
	rec := telemetry.NewRecorder(1)
	store := lockfree.NewShardedSkipList[int, string](lockfree.EqualSplitters(0, 256, 4))
	srv := startTCP(t, Config{DrainGrace: 500 * time.Millisecond}, store, rec)

	var wrote, done sync.WaitGroup
	errc := make(chan error, clients)
	for cl := 0; cl < clients; cl++ {
		wrote.Add(1)
		done.Add(1)
		go func(cl int) {
			defer done.Done()
			signaled := false
			defer func() {
				if !signaled {
					wrote.Done()
				}
			}()
			nc, err := net.Dial("tcp", srv.Addr())
			if err != nil {
				errc <- err
				return
			}
			defer nc.Close()
			br := bufio.NewReader(nc)
			rng := rand.New(rand.NewPCG(7, uint64(cl)))
			for p := 0; p < pipelines; p++ {
				var req strings.Builder
				kinds := make([]byte, plen)
				for i := range kinds {
					k := int(rng.Uint64N(256))
					switch rng.Uint64N(4) {
					case 0:
						fmt.Fprintf(&req, "SET %d c%d\n", k, cl)
						kinds[i] = ':'
					case 1:
						fmt.Fprintf(&req, "DEL %d\n", k)
						kinds[i] = ':'
					case 2:
						fmt.Fprintf(&req, "GET %d\n", k)
						kinds[i] = '$'
					default:
						req.WriteString("PING\n")
						kinds[i] = '+'
					}
				}
				if _, err := nc.Write([]byte(req.String())); err != nil {
					errc <- fmt.Errorf("client %d write: %w", cl, err)
					return
				}
				if p == pipelines-1 {
					// Final pipeline is on the wire; shutdown may begin.
					signaled = true
					wrote.Done()
				}
				for i := 0; i < plen; i++ {
					line, err := br.ReadString('\n')
					if err != nil {
						errc <- fmt.Errorf("client %d pipeline %d: response %d/%d dropped: %w",
							cl, p, i, plen, err)
						return
					}
					switch kinds[i] {
					case ':':
						if !strings.HasPrefix(line, ":") {
							errc <- fmt.Errorf("client %d: want integer reply, got %q", cl, line)
							return
						}
					case '$':
						if !strings.HasPrefix(line, "$") && line != "_\n" {
							errc <- fmt.Errorf("client %d: want value reply, got %q", cl, line)
							return
						}
					case '+':
						if line != "+PONG\n" {
							errc <- fmt.Errorf("client %d: want +PONG, got %q", cl, line)
							return
						}
					}
				}
			}
		}(cl)
	}

	wrote.Wait() // every client's last pipeline is in flight
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown did not drain cleanly: %v", err)
	}
	done.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	if srv.Ready() == nil {
		t.Fatal("server still ready after Shutdown")
	}
	if _, err := net.Dial("tcp", srv.Addr()); err == nil {
		t.Fatal("listener still accepting after Shutdown")
	}
	s := rec.Snapshot().Counters
	if s.ConnAccepted != clients {
		t.Fatalf("conn_accepted = %d, want %d", s.ConnAccepted, clients)
	}
	if s.ConnActive != 0 {
		t.Fatalf("conn_active = %d after drain, want 0", s.ConnActive)
	}
	if s.CmdsCoalesced == 0 {
		t.Fatal("pipelined workload coalesced nothing")
	}
}

// TestShutdownIdempotent: repeated and pre-Serve Shutdown calls are safe.
func TestShutdownIdempotent(t *testing.T) {
	srv := New(Config{}, lockfree.NewSkipList[int, string]())
	ctx := context.Background()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := srv.ListenAndServe(); err != ErrServerClosed {
		t.Fatalf("Serve after Shutdown = %v, want ErrServerClosed", err)
	}
}

// gatedStore blocks every point Get until release closes, reporting each
// entry: a valve that holds a connection inside a store call.
type gatedStore struct {
	Store
	entered chan struct{}
	release chan struct{}
}

func (s *gatedStore) Get(k int) (string, bool) {
	s.entered <- struct{}{}
	<-s.release
	return s.Store.Get(k)
}

// TestConnCloseInFlight: a client that hangs up while its command is
// inside a store call leaves the server serving other connections, and
// Shutdown still drains cleanly.
func TestConnCloseInFlight(t *testing.T) {
	base := lockfree.NewSkipList[int, string]()
	base.Insert(1, "one")
	gated := &gatedStore{Store: base, entered: make(chan struct{}, 16), release: make(chan struct{})}
	srv := New(Config{}, gated)

	cl, _ := pipeConn(t, srv)
	if _, err := cl.Write([]byte("GET 1\n")); err != nil {
		t.Fatal(err)
	}
	<-gated.entered
	cl.Close() // the transport dies with the command in flight
	close(gated.release)

	cl2, br2 := pipeConn(t, srv)
	if _, err := cl2.Write([]byte("GET 1\n")); err != nil {
		t.Fatal(err)
	}
	if got := mustReadLine(t, br2); got != "$one" {
		t.Fatalf("reply after in-flight close = %q, want $one", got)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	cl2.Close()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown after in-flight close: %v", err)
	}
}

// TestShutdownDrainsMidBurst: Shutdown landing while clients are still
// writing drops no replies. net.Pipe is synchronous, so a completed Write
// means the server consumed the burst, and every consumed command is
// answered before the connection closes.
func TestShutdownDrainsMidBurst(t *testing.T) {
	const conns = 6
	const per = 32 // commands per burst, under MaxBatch

	srv := New(Config{}, lockfree.NewSkipList[int, string]())
	var burst strings.Builder
	for i := 0; i < per; i++ {
		fmt.Fprintf(&burst, "SET %d v\n", i)
	}
	req := []byte(burst.String())

	sent := make([]int, conns)
	got := make([]int, conns)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		cl, _ := pipeConn(t, srv)
		wg.Add(2)
		go func(i int, cl net.Conn) { // writer: bursts until the drain cuts the pipe
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := cl.Write(req); err != nil {
					return
				}
				sent[i] += per
			}
		}(i, cl)
		go func(i int, cl net.Conn) { // reader: counts reply lines until EOF
			defer wg.Done()
			buf := make([]byte, 4096)
			for {
				n, err := cl.Read(buf)
				for _, b := range buf[:n] {
					if b == '\n' {
						got[i]++
					}
				}
				if err != nil {
					return
				}
			}
		}(i, cl)
	}

	time.Sleep(20 * time.Millisecond) // land Shutdown mid-burst
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	close(stop)
	wg.Wait()

	for i := 0; i < conns; i++ {
		if sent[i] == 0 {
			t.Errorf("conn %d sent no complete burst before shutdown", i)
		}
		if got[i] != sent[i] {
			t.Errorf("conn %d: %d replies for %d accepted commands (dropped %d)",
				i, got[i], sent[i], sent[i]-got[i])
		}
	}
}

// settledGoroutines returns runtime.NumGoroutine once it has read the
// same for several samples in a row (or after two seconds regardless).
func settledGoroutines() int {
	deadline := time.Now().Add(2 * time.Second)
	n, same := runtime.NumGoroutine(), 0
	for same < 5 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
		if m := runtime.NumGoroutine(); m == n {
			same++
		} else {
			n, same = m, 0
		}
	}
	return n
}

// TestOneGoroutinePerConn: a connection is served by one goroutine that
// reads, executes and flushes. N connections that have each answered a
// PING raise the goroutine count by exactly N.
func TestOneGoroutinePerConn(t *testing.T) {
	const n = 8
	srv := startTCP(t, Config{}, lockfree.NewSkipList[int, string](), nil)
	base := settledGoroutines()
	for i := 0; i < n; i++ {
		nc, br := dial(t, srv)
		if _, err := nc.Write([]byte("PING\n")); err != nil {
			t.Fatal(err)
		}
		if got := mustReadLine(t, br); got != "+PONG" {
			t.Fatalf("conn %d: PING answered %q", i, got)
		}
	}
	if got := settledGoroutines() - base; got != n {
		t.Fatalf("%d open connections added %d goroutines, want %d", n, got, n)
	}
}

// TestQuitMidRun: a QUIT inside a pipelined run is answered after the
// commands before it, closes the connection, and the command after it is
// never executed.
func TestQuitMidRun(t *testing.T) {
	for _, d := range dialects {
		t.Run(d.name, func(t *testing.T) {
			cs := &countingStore{Store: lockfree.NewSkipList[int, string]()}
			cl, br := pipeConn(t, New(Config{}, cs))
			req := d.cmd("SET", "1", "a") + d.cmd("GET", "1") + d.cmd("QUIT") + d.cmd("GET", "1")
			if _, err := cl.Write([]byte(req)); err != nil {
				t.Fatal(err)
			}
			for i, want := range []string{d.setOK, "$a", "+OK"} {
				if got := d.read(t, br); got != want {
					t.Fatalf("reply %d = %q, want %q", i, got, want)
				}
			}
			if b, err := br.ReadByte(); err != io.EOF {
				t.Fatalf("after QUIT: read %q, %v; want EOF", b, err)
			}
			if got, want := cs.calls(), [6]int64{1, 1, 0, 0, 0, 0}; got != want {
				t.Fatalf("store calls (point i/g/d, batch i/g/d) = %v, want %v", got, want)
			}
		})
	}
}

// TestHalfCloseAnswersBufferedRun: a client that pipelines k commands and
// then half-closes gets all k replies before the server closes.
func TestHalfCloseAnswersBufferedRun(t *testing.T) {
	const k = 40
	srv := startTCP(t, Config{}, lockfree.NewSkipList[int, string](), nil)
	nc, br := dial(t, srv)
	var req strings.Builder
	for i := 0; i < k/2; i++ {
		fmt.Fprintf(&req, "SET %d v%d\nGET %d\n", i, i, i)
	}
	if _, err := nc.Write([]byte(req.String())); err != nil {
		t.Fatal(err)
	}
	if err := nc.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < k/2; i++ {
		if got := mustReadLine(t, br); got != ":1" {
			t.Fatalf("SET %d answered %q", i, got)
		}
		if got, want := mustReadLine(t, br), fmt.Sprintf("$v%d", i); got != want {
			t.Fatalf("GET %d answered %q, want %q", i, got, want)
		}
	}
	if b, err := br.ReadByte(); err != io.EOF {
		t.Fatalf("after %d replies: read %q, %v; want EOF", k, b, err)
	}
}

// TestDepthOneConnsServedPointByPoint: many connections that each wait
// for every reply are served by point calls only, one per command, with
// every reply correct. No mode gathers commands across connections.
func TestDepthOneConnsServedPointByPoint(t *testing.T) {
	const conns, keys = 16, 8
	cs := &countingStore{Store: lockfree.NewSkipList[int, string]()}
	srv := New(Config{}, cs)

	var wg sync.WaitGroup
	errc := make(chan error, conns)
	for c := 0; c < conns; c++ {
		cl, br := pipeConn(t, srv)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			roundTrip := func(req, want string) bool {
				if _, err := cl.Write([]byte(req)); err != nil {
					errc <- fmt.Errorf("conn %d write: %w", c, err)
					return false
				}
				line, err := br.ReadString('\n')
				if got := strings.TrimSuffix(line, "\n"); err != nil || got != want {
					errc <- fmt.Errorf("conn %d %q = %q (%v), want %q", c, strings.TrimSpace(req), got, err, want)
					return false
				}
				return true
			}
			for k := c * keys; k < (c+1)*keys; k++ {
				v := fmt.Sprintf("v%d", k)
				if !roundTrip(fmt.Sprintf("SET %d %s\n", k, v), ":1") ||
					!roundTrip(fmt.Sprintf("GET %d\n", k), "$"+v) ||
					!roundTrip(fmt.Sprintf("DEL %d\n", k), ":1") ||
					!roundTrip(fmt.Sprintf("GET %d\n", k), "_") {
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	const n = conns * keys
	if got, want := cs.calls(), [6]int64{n, 2 * n, n, 0, 0, 0}; got != want {
		t.Fatalf("store calls = %v, want %v", got, want)
	}
}

// TestNewKeepsOneProcStore: a store with the *Proc methods is called
// through them directly; any other store gets the plainProcs adapter,
// and only the first kind counts as attributed.
func TestNewKeepsOneProcStore(t *testing.T) {
	sl := lockfree.NewSkipList[int, string]()
	srv := New(Config{}, sl)
	if ps, ok := srv.ps.(*lockfree.SkipList[int, string]); !ok || ps != sl || !srv.attrib {
		t.Fatalf("ProcStore store: ps = %T, attrib = %v; want the store itself, attributed", srv.ps, srv.attrib)
	}
	cs := &countingStore{Store: sl}
	srv = New(Config{}, cs)
	if ps, ok := srv.ps.(plainProcs); !ok || ps.Store != cs || srv.attrib {
		t.Fatalf("plain store: ps = %T, attrib = %v; want plainProcs over it, unattributed", srv.ps, srv.attrib)
	}
}

// TestPlainProcsMatchesStore: each plainProcs method gives the same
// results as the plain method it stands for, and leaves the Proc it is
// handed untouched.
func TestPlainProcsMatchesStore(t *testing.T) {
	fresh := func() (*lockfree.SkipList[int, string], plainProcs, *core.Proc) {
		want := lockfree.NewSkipList[int, string]()
		got := lockfree.NewSkipList[int, string]()
		for k := 0; k < 8; k += 2 {
			want.Insert(k, fmt.Sprint(k))
			got.Insert(k, fmt.Sprint(k))
		}
		return want, plainProcs{got}, &core.Proc{Stats: &instrument.OpStats{}}
	}
	untouched := func(t *testing.T, p *core.Proc) {
		t.Helper()
		if *p.Stats != (instrument.OpStats{}) {
			t.Fatalf("plainProcs counted steps into the Proc: %+v", *p.Stats)
		}
	}
	keys := []int{0, 1, 2, 3, 4, 5, 6, 7}

	t.Run("insert", func(t *testing.T) {
		want, ps, p := fresh()
		for _, k := range keys {
			if w, g := want.Insert(k, "x"), ps.InsertProc(p, k, "x"); w != g {
				t.Fatalf("InsertProc(%d) = %v, Insert = %v", k, g, w)
			}
		}
		untouched(t, p)
	})
	t.Run("get", func(t *testing.T) {
		want, ps, p := fresh()
		for _, k := range keys {
			wv, wok := want.Get(k)
			if gv, gok := ps.GetProc(p, k); gv != wv || gok != wok {
				t.Fatalf("GetProc(%d) = %q %v, Get = %q %v", k, gv, gok, wv, wok)
			}
		}
		untouched(t, p)
	})
	t.Run("delete", func(t *testing.T) {
		want, ps, p := fresh()
		for _, k := range keys {
			if w, g := want.Delete(k), ps.DeleteProc(p, k); w != g {
				t.Fatalf("DeleteProc(%d) = %v, Delete = %v", k, g, w)
			}
		}
		untouched(t, p)
	})
	t.Run("insertBatch", func(t *testing.T) {
		want, ps, p := fresh()
		items := make([]core.KV[int, string], len(keys))
		for i, k := range keys {
			items[i] = core.KV[int, string]{Key: k, Value: "x"}
		}
		wIns, gIns := make([]bool, len(items)), make([]bool, len(items))
		wn, gn := want.InsertBatch(items, wIns), ps.InsertBatchProc(p, items, gIns)
		if wn != gn || !slices.Equal(wIns, gIns) {
			t.Fatalf("InsertBatchProc = %d %v, InsertBatch = %d %v", gn, gIns, wn, wIns)
		}
		untouched(t, p)
	})
	t.Run("getBatch", func(t *testing.T) {
		want, ps, p := fresh()
		wVals, gVals := make([]string, len(keys)), make([]string, len(keys))
		wFound, gFound := make([]bool, len(keys)), make([]bool, len(keys))
		wn, gn := want.GetBatch(keys, wVals, wFound), ps.GetBatchProc(p, keys, gVals, gFound)
		if wn != gn || !slices.Equal(wVals, gVals) || !slices.Equal(wFound, gFound) {
			t.Fatalf("GetBatchProc = %d %q %v, GetBatch = %d %q %v", gn, gVals, gFound, wn, wVals, wFound)
		}
		untouched(t, p)
	})
	t.Run("deleteBatch", func(t *testing.T) {
		want, ps, p := fresh()
		wDel, gDel := make([]bool, len(keys)), make([]bool, len(keys))
		wn, gn := want.DeleteBatch(keys, wDel), ps.DeleteBatchProc(p, keys, gDel)
		if wn != gn || !slices.Equal(wDel, gDel) {
			t.Fatalf("DeleteBatchProc = %d %v, DeleteBatch = %d %v", gn, gDel, wn, wDel)
		}
		untouched(t, p)
	})
}

// TestWriteValueNotLineRepresentable: a value stored through RESP with
// an embedded newline cannot be framed by the line dialect — the line
// reader gets -ERR and stays in sync, while RESP round-trips the value
// intact. RANGE applies the same rule before framing any output.
func TestWriteValueNotLineRepresentable(t *testing.T) {
	store := lockfree.NewSkipList[int, string]()
	srv := New(Config{}, store)

	// RESP connection stores a two-line value and reads it back whole.
	clR, brR := pipeConn(t, srv)
	val := "line1\nline2"
	if _, err := clR.Write([]byte(respCmd("SET", "10", val))); err != nil {
		t.Fatal(err)
	}
	if got := mustReadLine(t, brR); got != "+OK\r" {
		t.Fatalf("RESP SET reply = %q", got)
	}
	if _, err := clR.Write([]byte(respCmd("GET", "10"))); err != nil {
		t.Fatal(err)
	}
	resp := make([]byte, len("$11\r\n")+len(val)+2)
	if _, err := io.ReadFull(brR, resp); err != nil {
		t.Fatal(err)
	}
	if got := string(resp); got != "$11\r\n"+val+"\r\n" {
		t.Fatalf("RESP GET reply = %q", got)
	}

	store.Insert(11, "clean")

	// Line connection: the poisoned key errors, the stream stays usable.
	clL, brL := pipeConn(t, srv)
	if _, err := clL.Write([]byte("GET 10\nGET 11\nRANGE 10 12\nRANGE 11 12\n")); err != nil {
		t.Fatal(err)
	}
	wants := []string{
		"-ERR value not line-representable",
		"$clean",
		"-ERR value not line-representable",
		"*1",
		"11 clean",
	}
	for i, w := range wants {
		if got := mustReadLine(t, brL); got != w {
			t.Fatalf("line reply %d = %q, want %q", i, got, w)
		}
	}
}
