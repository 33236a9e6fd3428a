package server

import (
	"fmt"
	"io"
	"net"
	"strings"
	"testing"

	"repro/lockfree"
	ltel "repro/lockfree/telemetry"
)

// wirePair serves a store under cfg over one end of a net.Pipe with
// deadlines disabled: pipe deadlines allocate a timer per arm, which would
// charge transport bookkeeping to the wire path being measured.
func wirePair(tb testing.TB, cfg Config, store Store) net.Conn {
	tb.Helper()
	cfg.ReadTimeout, cfg.WriteTimeout = -1, -1
	srv := New(cfg, store)
	cl, se := net.Pipe()
	go srv.ServeConn(se)
	tb.Cleanup(func() { cl.Close() })
	return cl
}

// exchange writes one pre-rendered pipelined request and reads back
// exactly respLen reply bytes; allocation-free on the client side so
// AllocsPerRun sees only the server.
func exchange(tb testing.TB, cl net.Conn, req, resp []byte) {
	if _, err := cl.Write(req); err != nil {
		tb.Fatal(err)
	}
	if _, err := io.ReadFull(cl, resp); err != nil {
		tb.Fatal(err)
	}
}

// pinAllocs asserts the steady-state server-side allocation count of one
// pipelined exchange. A few unmeasured warm-up rounds first let the
// connection's arenas, free lists and reply buffer reach their high-water
// capacity — the pin is about steady state, not cold start.
func pinAllocs(t *testing.T, cl net.Conn, req string, respLen int, maxAllocs float64) {
	t.Helper()
	reqB := []byte(req)
	respB := make([]byte, respLen)
	for i := 0; i < 50; i++ {
		exchange(t, cl, reqB, respB)
	}
	got := testing.AllocsPerRun(100, func() {
		exchange(t, cl, reqB, respB)
	})
	if got > maxAllocs {
		t.Errorf("allocs per pipelined exchange = %.3f, want <= %.1f", got, maxAllocs)
	}
}

// TestWireAllocsLine pins the line-protocol hot path: depth-16 pipelined
// GET and DEL runs execute with zero server-side allocations, SET stays
// under one allocation amortized (the value arena's chunk cycle).
func TestWireAllocsLine(t *testing.T) {
	const depth = 16
	cl := wirePair(t, Config{}, lockfree.NewSkipList[int, string]())

	// GET misses: 16 x "_\n" replies.
	t.Run("get", func(t *testing.T) {
		pinAllocs(t, cl, strings.Repeat("GET 42\n", depth), depth*len("_\n"), 0)
	})
	// DEL on absent keys: 16 x ":0\n".
	t.Run("del", func(t *testing.T) {
		pinAllocs(t, cl, strings.Repeat("DEL 42\n", depth), depth*len(":0\n"), 0)
	})
	// Duplicate-key SETs: values intern into the arena every time even
	// though the store keeps the first, so the arena chunk cycle is
	// exercised; replies are 16 x ":0\n" after the first round seeds key 7.
	t.Run("set", func(t *testing.T) {
		pinAllocs(t, cl, strings.Repeat("SET 7 valuevaluevaluevalue\n", depth), depth*len(":0\n"), 1)
	})
}

// TestWireAllocsResp pins the same paths through the RESP codec.
func TestWireAllocsResp(t *testing.T) {
	const depth = 16
	cl := wirePair(t, Config{}, lockfree.NewSkipList[int, string]())

	get := respCmd("GET", "42")
	del := respCmd("DEL", "42")
	set := respCmd("SET", "7", "valuevaluevaluevalue")

	t.Run("get", func(t *testing.T) {
		pinAllocs(t, cl, strings.Repeat(get, depth), depth*len("$-1\r\n"), 0)
	})
	t.Run("del", func(t *testing.T) {
		pinAllocs(t, cl, strings.Repeat(del, depth), depth*len(":0\r\n"), 0)
	})
	t.Run("set", func(t *testing.T) {
		pinAllocs(t, cl, strings.Repeat(set, depth), depth*len("+OK\r\n"), 1)
	})
}

// TestWireAllocsPlainStore pins the line-protocol hot path on a store
// without the *Proc methods, which the server calls through plainProcs:
// the adapter adds no allocation to GET, DEL or SET.
func TestWireAllocsPlainStore(t *testing.T) {
	const depth = 16
	cl := wirePair(t, Config{}, struct{ Store }{lockfree.NewSkipList[int, string]()})

	t.Run("get", func(t *testing.T) {
		pinAllocs(t, cl, strings.Repeat("GET 42\n", depth), depth*len("_\n"), 0)
	})
	t.Run("del", func(t *testing.T) {
		pinAllocs(t, cl, strings.Repeat("DEL 42\n", depth), depth*len(":0\n"), 0)
	})
	t.Run("set", func(t *testing.T) {
		pinAllocs(t, cl, strings.Repeat("SET 7 valuevaluevaluevalue\n", depth), depth*len(":0\n"), 1)
	})
}

// TestWireAllocsShardedRecorded pins the wire path on the store lflserver
// actually runs - four range shards under a recorder that samples every
// operation - with depth-16 bursts whose keys land in all four shards, so
// each coalesced stretch becomes a sharded batch of four sub-runs. The
// unsharded, unrecorded pins above never reach the sharded batch code or
// the sampled-operation seam; this one fails if either allocates.
func TestWireAllocsShardedRecorded(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool puts at random, so pooled scratch reallocates")
	}
	const depth = 16
	tel := ltel.New("wire-allocs-sharded", ltel.WithSampleEvery(1))
	t.Cleanup(tel.Unregister)
	cl := wirePair(t, Config{}, lockfree.NewShardedSkipList[int, string](
		lockfree.EqualSplitters(0, 1<<20, 4), lockfree.WithTelemetry(tel)))

	const value = "valuevaluevaluevalue"
	key := func(i int) string { return fmt.Sprint((i%4)<<18 + i) } // shard i%4
	var gets, dels, mixed strings.Builder
	mixedLen := 0
	for i := 0; i < depth; i++ {
		gets.WriteString(respCmd("GET", key(i)))
		dels.WriteString(respCmd("DEL", key(i+depth))) // never set
		switch {
		case i < 6:
			mixed.WriteString(respCmd("GET", key(i)))
			mixedLen += len("$20\r\n" + value + "\r\n")
		case i < 11:
			mixed.WriteString(respCmd("DEL", key(i+depth)))
			mixedLen += len(":0\r\n")
		default:
			mixed.WriteString(respCmd("SET", key(i), value)) // duplicate
			mixedLen += len("+OK\r\n")
		}
	}
	ok := make([]byte, len("+OK\r\n"))
	for i := 0; i < depth; i++ {
		exchange(t, cl, []byte(respCmd("SET", key(i), value)), ok)
	}

	t.Run("get", func(t *testing.T) {
		pinAllocs(t, cl, gets.String(), depth*len("$20\r\n"+value+"\r\n"), 0)
	})
	t.Run("del", func(t *testing.T) {
		pinAllocs(t, cl, dels.String(), depth*len(":0\r\n"), 0)
	})
	t.Run("mixed", func(t *testing.T) {
		pinAllocs(t, cl, mixed.String(), mixedLen, 1)
	})
	if got := tel.Snapshot().Counters.ShardOps; got == 0 {
		t.Fatal("recorder saw no routed operations: the pin measured the wrong store")
	}
}

// benchWire measures one pipelined exchange per iteration, cycling
// through reqs, each of which must draw respLen reply bytes; with
// -benchmem the allocs/op column is the wire path's allocation floor,
// gated hard by scripts/benchdiff.sh.
func benchWire(b *testing.B, cfg Config, respLen int, reqs ...string) {
	cl := wirePair(b, cfg, lockfree.NewSkipList[int, string]())
	reqB := make([][]byte, len(reqs))
	for i, req := range reqs {
		reqB[i] = []byte(req)
	}
	respB := make([]byte, respLen)
	for i := 0; i < 20; i++ { // steady state before the clock starts
		exchange(b, cl, reqB[i%len(reqB)], respB)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exchange(b, cl, reqB[i%len(reqB)], respB)
	}
}

const benchDepth = 16

func BenchmarkServerWireGetLine(b *testing.B) {
	benchWire(b, Config{}, benchDepth*len("_\n"), strings.Repeat("GET 42\n", benchDepth))
}

func BenchmarkServerWireGetResp(b *testing.B) {
	benchWire(b, Config{}, benchDepth*len("$-1\r\n"), strings.Repeat(respCmd("GET", "42"), benchDepth))
}

func BenchmarkServerWireDelLine(b *testing.B) {
	benchWire(b, Config{}, benchDepth*len(":0\n"), strings.Repeat("DEL 42\n", benchDepth))
}

func BenchmarkServerWireDelResp(b *testing.B) {
	benchWire(b, Config{}, benchDepth*len(":0\r\n"), strings.Repeat(respCmd("DEL", "42"), benchDepth))
}

func BenchmarkServerWireSetLine(b *testing.B) {
	benchWire(b, Config{}, benchDepth*len(":0\n"), strings.Repeat("SET 7 valuevaluevaluevalue\n", benchDepth))
}

func BenchmarkServerWireSetResp(b *testing.B) {
	benchWire(b, Config{}, benchDepth*len("+OK\r\n"), strings.Repeat(respCmd("SET", "7", "valuevaluevaluevalue"), benchDepth))
}

// TestValueArenaIntern is the unit contract of the chunk-interning arena:
// returned strings are stable copies, independent of later interning and
// of mutation of the source buffer, and small values amortize far below
// one allocation each.
func TestValueArenaIntern(t *testing.T) {
	var a valueArena
	src := []byte("hello")
	s1 := a.intern(src)
	src[0] = 'X' // the arena copied: mutating the source must not show
	s2 := a.intern([]byte("world"))
	if s1 != "hello" || s2 != "world" {
		t.Fatalf("interned %q, %q; want hello, world", s1, s2)
	}

	var got []string
	for i := 0; i < 10000; i++ {
		got = append(got, a.intern([]byte(fmt.Sprintf("v%04d", i))))
	}
	for i, s := range got {
		if want := fmt.Sprintf("v%04d", i); s != want {
			t.Fatalf("interned value %d corrupted: %q, want %q", i, s, want)
		}
	}

	// A value larger than the chunk size gets its own dedicated chunk.
	huge := strings.Repeat("z", arenaChunkBytes+1)
	if s := a.intern([]byte(huge)); s != huge {
		t.Fatal("oversized value corrupted by interning")
	}
}

// TestReplyWriterVectored exercises the writev assembly: big values are
// spliced by reference between framing cuts and the output matches a
// straightforward serialization, across several flush cycles.
func TestReplyWriterVectored(t *testing.T) {
	big1 := strings.Repeat("A", bigValueBytes)
	big2 := strings.Repeat("B", 3*bigValueBytes)
	for round := 0; round < 3; round++ {
		var w replyWriter
		cl, se := net.Pipe()
		done := make(chan string, 1)
		go func() {
			b, _ := io.ReadAll(cl)
			done <- string(b)
		}()

		w.literal("+OK\r\n")
		w.value("small")
		w.literal("\r\n")
		w.value(big1)
		w.value(big2)
		w.literal(":1\r\n")
		want := "+OK\r\nsmall\r\n" + big1 + big2 + ":1\r\n"
		if got := w.buffered(); got != len(want) {
			t.Fatalf("buffered() = %d, want %d", got, len(want))
		}
		if err := w.flush(se); err != nil {
			t.Fatal(err)
		}
		se.Close()
		if got := <-done; got != want {
			t.Fatalf("flushed %d bytes, want %d; content mismatch", len(got), len(want))
		}
		if w.buffered() != 0 {
			t.Fatal("writer not reset after flush")
		}
	}
}
