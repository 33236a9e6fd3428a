package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/instrument"
	"repro/internal/telemetry"
	"repro/internal/wal"
)

// Store is the ordered key-value surface the server fronts: the subset of
// the lockfree facade (SkipList, ShardedSkipList) the protocol needs.
// Point methods must be linearizable; the batch methods sort their
// argument in place and report positionally against the sorted order,
// exactly like the lockfree batch contract.
type Store interface {
	Insert(key int, value string) bool
	Get(key int) (string, bool)
	Delete(key int) bool
	Len() int
	AscendRange(from, to int, fn func(key int, value string) bool)
	InsertBatch(items []core.KV[int, string], inserted []bool) int
	GetBatch(keys []int, vals []string, found []bool) int
	DeleteBatch(keys []int, deleted []bool) int
}

// ProcStore is the optional attribution capability of a Store: the same
// operations with a per-process instrumentation context attached, so a
// sampled request can report exactly which essential steps and CAS
// retries it paid. A nil Proc must behave exactly like the
// plain method. The lockfree facade types (SkipList, ShardedSkipList)
// implement it; the server detects it with a type assertion at
// construction and falls back to unattributed traces when the store
// lacks it.
type ProcStore interface {
	InsertProc(p *core.Proc, key int, value string) bool
	GetProc(p *core.Proc, key int) (string, bool)
	DeleteProc(p *core.Proc, key int) bool
	InsertBatchProc(p *core.Proc, items []core.KV[int, string], inserted []bool) int
	GetBatchProc(p *core.Proc, keys []int, vals []string, found []bool) int
	DeleteBatchProc(p *core.Proc, keys []int, deleted []bool) int
}

// plainProcs gives a Store without attribution the ProcStore method set,
// so the server makes every point and batch call one way; each method
// ignores p.
type plainProcs struct{ Store }

func (s plainProcs) InsertProc(_ *core.Proc, k int, v string) bool { return s.Insert(k, v) }
func (s plainProcs) GetProc(_ *core.Proc, k int) (string, bool)    { return s.Get(k) }
func (s plainProcs) DeleteProc(_ *core.Proc, k int) bool           { return s.Delete(k) }
func (s plainProcs) InsertBatchProc(_ *core.Proc, items []core.KV[int, string], inserted []bool) int {
	return s.InsertBatch(items, inserted)
}
func (s plainProcs) GetBatchProc(_ *core.Proc, keys []int, vals []string, found []bool) int {
	return s.GetBatch(keys, vals, found)
}
func (s plainProcs) DeleteBatchProc(_ *core.Proc, keys []int, deleted []bool) int {
	return s.DeleteBatch(keys, deleted)
}

// Config bounds a Server. The zero value is usable: every limit falls
// back to the default documented on its field.
type Config struct {
	// Addr is the TCP listen address for ListenAndServe (default
	// "127.0.0.1:7379").
	Addr string
	// MaxConns caps concurrently open connections; connections beyond it
	// are shed at accept time with "-ERR server busy" (default 1024).
	MaxConns int
	// ReadTimeout bounds how long a connection may sit idle between
	// requests; an idle connection is closed (default 5m). A negative
	// value disables the idle deadline entirely — benchmark transports
	// like net.Pipe allocate per deadline arm, which would poison the
	// wire path's allocation accounting.
	ReadTimeout time.Duration
	// WriteTimeout bounds each response flush (default 10s). Negative
	// disables the write deadline, as for ReadTimeout.
	WriteTimeout time.Duration
	// MaxLineBytes bounds one request line, and one RESP bulk payload. An
	// overlong request is discarded and answered -ERR; the connection
	// keeps serving (default 64 KiB).
	MaxLineBytes int
	// MaxBatch caps how many pipelined commands one coalesced run may
	// absorb (default 256).
	MaxBatch int
	// MaxRange caps the number of pairs one RANGE may return; a larger
	// scan fails the request, not the process (default 4096).
	MaxRange int
	// DrainGrace is the window a draining connection keeps reading after
	// Shutdown begins, so commands already on the wire are served rather
	// than dropped (default 250ms).
	DrainGrace time.Duration
	// Durability selects the write-ahead-log mode: DurabilityOff (or "")
	// serves purely in memory; DurabilityAsync publishes every applied
	// mutation to WAL but acks without waiting for the disk;
	// DurabilitySync additionally holds each run's reply flush until the
	// run's last mutation is fsync-durable, so a client-visible ack
	// implies the write survives a crash. Async and sync require WAL.
	Durability string
	// WAL is the open log mutations are published to. The server does
	// not own it: the caller opens it (replaying any tail first) and
	// closes it after Shutdown. Nil disables logging regardless of
	// Durability.
	WAL *wal.Log
}

// Durability modes for Config.Durability.
const (
	DurabilityOff   = "off"
	DurabilityAsync = "async"
	DurabilitySync  = "sync"
)

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = "127.0.0.1:7379"
	}
	if c.MaxConns <= 0 {
		c.MaxConns = 1024
	}
	if c.ReadTimeout == 0 {
		c.ReadTimeout = 5 * time.Minute
	}
	if c.WriteTimeout == 0 {
		c.WriteTimeout = 10 * time.Second
	}
	if c.MaxLineBytes <= 0 {
		c.MaxLineBytes = 64 << 10
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 256
	}
	if c.MaxRange <= 0 {
		c.MaxRange = 4096
	}
	if c.DrainGrace <= 0 {
		c.DrainGrace = 250 * time.Millisecond
	}
	return c
}

// Server serves the wire protocols (line and RESP2, auto-detected per
// connection) over TCP. Construct with New; a Server serves one Store and
// may not be reused after Shutdown.
type Server struct {
	cfg     Config
	store   Store
	ps      ProcStore           // every point and batch call: the store, or plainProcs over it
	attrib  bool                // store implements ProcStore: sampled traces carry exact step counts
	tel     *telemetry.Recorder // optional; nil disables counters
	obs     *Obs                // optional; nil disables request observability
	wal     *wal.Log            // mutation log; nil when durability is off
	walSync bool                // hold reply flushes for fsync (DurabilitySync)

	mu       sync.Mutex
	ln       net.Listener
	conns    map[*conn]struct{}
	connGone *sync.Cond // broadcast when conns drains to empty
	draining bool
	done     bool

	ready atomic.Bool
}

// New returns a Server over store with the given config (zero fields get
// defaults).
func New(cfg Config, store Store) *Server {
	s := &Server{
		cfg:   cfg.withDefaults(),
		store: store,
		conns: make(map[*conn]struct{}),
	}
	s.connGone = sync.NewCond(&s.mu)
	s.ps, s.attrib = store.(ProcStore)
	if !s.attrib {
		s.ps = plainProcs{store}
	}
	switch s.cfg.Durability {
	case DurabilityAsync:
		s.wal = s.cfg.WAL
	case DurabilitySync:
		s.wal = s.cfg.WAL
		s.walSync = s.wal != nil
	}
	return s
}

// SetTelemetry attaches rec to the server's connection and coalescing
// counters (conn_accepted, conn_active, conn_rejected, cmds_coalesced).
// Attach before Serve; nil (the default) disables them. The store's own
// telemetry is attached separately, at store construction.
func (s *Server) SetTelemetry(rec *telemetry.Recorder) { s.tel = rec }

// SetObs attaches request observability: per-verb latency histograms,
// batch-size and queue-wait histograms, and the sampled trace ring.
// Attach before Serve; nil (the default) disables the whole layer, whose
// cost then is one nil-check branch per run and unit.
func (s *Server) SetObs(o *Obs) { s.obs = o }

// Obs returns the attached observability state, or nil.
func (s *Server) Obs() *Obs { return s.obs }

func (s *Server) addCounter(c instrument.Counter, n uint64) {
	if s.tel != nil {
		s.tel.AddCounter(c, n)
	}
}

func (s *Server) addGauge(c instrument.Counter, delta int64) {
	if s.tel != nil {
		s.tel.AddGauge(c, delta)
	}
}

// ListenAndServe binds cfg.Addr and serves until Shutdown. Like
// http.ListenAndServe it blocks; run it on its own goroutine and read the
// bound address with Addr (useful with a ":0" config).
func (s *Server) ListenAndServe() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// ErrServerClosed is returned by Serve after a Shutdown stops the accept
// loop, mirroring net/http's contract.
var ErrServerClosed = errors.New("server: closed")

// Serve accepts connections on ln until Shutdown. Connections beyond
// MaxConns are shed immediately with "-ERR server busy" (counted as
// conn_rejected) so overload degrades by refusing work, not by queueing
// unboundedly.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.done || s.draining {
		s.mu.Unlock()
		ln.Close()
		return ErrServerClosed
	}
	s.ln = ln
	s.mu.Unlock()
	s.ready.Store(true)

	for {
		nc, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			draining := s.draining || s.done
			s.mu.Unlock()
			if draining {
				return ErrServerClosed
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				continue
			}
			return err
		}
		s.accept(nc)
	}
}

// accept admits or sheds one raw connection.
func (s *Server) accept(nc net.Conn) {
	s.mu.Lock()
	if s.draining || s.done || len(s.conns) >= s.cfg.MaxConns {
		s.mu.Unlock()
		s.addCounter(instrument.CtrConnRejected, 1)
		// Best-effort refusal notice; the client may already be gone.
		nc.SetWriteDeadline(time.Now().Add(time.Second))
		fmt.Fprintf(nc, "-ERR server busy\n")
		nc.Close()
		return
	}
	c := newConn(s, nc)
	s.conns[c] = struct{}{}
	s.mu.Unlock()
	s.addCounter(instrument.CtrConnAccepted, 1)
	s.addGauge(instrument.CtrConnActive, 1)
	go c.serve()
}

// ServeConn runs the protocol on an already-established transport (any
// net.Conn, e.g. one side of a net.Pipe in tests) and returns when the
// connection closes. It bypasses the MaxConns accept-time shedding but is
// otherwise identical to an accepted connection, including counters and
// shutdown draining.
func (s *Server) ServeConn(nc net.Conn) {
	s.mu.Lock()
	if s.done {
		s.mu.Unlock()
		nc.Close()
		return
	}
	c := newConn(s, nc)
	s.conns[c] = struct{}{}
	if s.draining {
		// Shutdown already swept the connection set; this late arrival
		// must drain itself or the drain would wait out its idle timeout.
		c.startDrain()
	}
	s.mu.Unlock()
	s.addCounter(instrument.CtrConnAccepted, 1)
	s.addGauge(instrument.CtrConnActive, 1)
	c.serve()
}

// remove unregisters a finished connection. The connection set itself is
// the liveness count Shutdown waits on — there is no separate WaitGroup
// whose Add could race a Wait crossing zero when a late ServeConn arrives
// mid-shutdown (a sync.WaitGroup reuse panic this design rules out). The
// conn_active gauge moves +1 strictly before the serving goroutine that
// performs the matching -1 exists, and remove runs exactly once per
// connection, so the gauge can never be observed negative; the -1 lands
// before the connection leaves the set, so once Shutdown's drain wait
// releases, every finished connection's decrement is already visible.
func (s *Server) remove(c *conn) {
	s.addGauge(instrument.CtrConnActive, -1)
	s.mu.Lock()
	delete(s.conns, c)
	if len(s.conns) == 0 {
		s.connGone.Broadcast()
	}
	s.mu.Unlock()
}

// Addr returns the listen address, or "" before Serve binds one.
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Healthy is the /healthz probe: nil while the process can serve at all.
func (s *Server) Healthy() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.done {
		return errors.New("server shut down")
	}
	return nil
}

// Ready is the /readyz probe: nil only while the accept loop is running
// and not draining, so load balancers stop routing before shutdown cuts
// connections.
func (s *Server) Ready() error {
	if !s.ready.Load() {
		return errors.New("server not accepting connections")
	}
	return nil
}

// Shutdown gracefully stops the server: it stops accepting (readiness
// goes false, the listener closes), then puts every connection into
// draining — each keeps reading for DrainGrace so commands already on the
// wire are answered, finishes the run in hand, flushes, and closes. If
// every connection drains before ctx expires Shutdown returns nil;
// otherwise it force-closes the stragglers and returns ctx.Err().
// Shutdown is idempotent; concurrent calls all wait for the same drain.
func (s *Server) Shutdown(ctx context.Context) error {
	s.ready.Store(false)
	s.mu.Lock()
	alreadyDone := s.done
	s.draining = true
	if s.ln != nil {
		s.ln.Close()
	}
	for c := range s.conns {
		c.startDrain()
	}
	s.mu.Unlock()
	if alreadyDone {
		return nil
	}

	drained := make(chan struct{})
	go func() {
		s.mu.Lock()
		for len(s.conns) > 0 {
			s.connGone.Wait()
		}
		s.mu.Unlock()
		close(drained)
	}()
	var err error
	select {
	case <-drained:
	case <-ctx.Done():
		err = ctx.Err()
		s.mu.Lock()
		for c := range s.conns {
			c.nc.Close()
		}
		s.mu.Unlock()
		<-drained
	}
	s.mu.Lock()
	s.done = true
	s.mu.Unlock()
	return err
}
