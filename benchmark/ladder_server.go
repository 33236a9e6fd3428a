package main

import (
	"context"
	"net"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/server"
)

// ladder_server.go is the ladder's contact with the serving layer proper:
// server.New and ServeConn on a net.Pipe, around a benchmark-owned store
// wrapper that records a span per store call, so that the server's self
// time is the request span minus the store spans nested in it.

// serverRig is an in-process server being assembled rung by rung: each
// later layer's file adds its piece to cfg or attach.
type serverRig struct {
	cfg    server.Config
	store  server.Store
	attach []func(*server.Server) // applied to every server built from the rig
}

func newServerRig(store server.Store) *serverRig {
	// No deadlines: net.Pipe allocates per deadline arm, which would be
	// charged to the server.
	return &serverRig{cfg: server.Config{ReadTimeout: -1, WriteTimeout: -1}, store: store}
}

func (r *serverRig) build() *server.Server {
	srv := server.New(r.cfg, r.store)
	for _, a := range r.attach {
		a(srv)
	}
	return srv
}

func shutdown(srv *server.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = srv.Shutdown(ctx) // the client has closed; a straggler is force-closed
}

// servePipe serves one connection over a net.Pipe and returns the client
// end; stop closes it and shuts the server down.
func (r *serverRig) servePipe() (client net.Conn, stop func()) {
	srv := r.build()
	c1, c2 := net.Pipe()
	done := make(chan struct{})
	go func() {
		srv.ServeConn(c2)
		close(done)
	}()
	return c1, func() {
		_ = c1.Close()
		<-done
		shutdown(srv)
	}
}

// tracedStore wraps the store the server fronts. It implements
// server.Store and server.ProcStore, and around every call records a span
// under the request chunk span the client has open, and totals.
type tracedStore struct {
	s      *libStore
	tr     *tracer
	parent atomic.Int64 // id of the client's open chunk span
	calls  atomic.Uint64
	items  atomic.Uint64 // keys the calls covered
	ns     atomic.Int64
}

var (
	_ server.Store     = (*tracedStore)(nil)
	_ server.ProcStore = (*tracedStore)(nil)
)

func (t *tracedStore) enter() (id int, start time.Time) {
	return t.tr.begin("store", int(t.parent.Load())), time.Now()
}

func (t *tracedStore) leave(id int, start time.Time, items int) {
	t.ns.Add(int64(time.Since(start)))
	t.tr.end(id)
	t.calls.Add(1)
	t.items.Add(uint64(items))
}

func (t *tracedStore) Insert(key int, value string) bool {
	id, start := t.enter()
	defer t.leave(id, start, 1)
	return t.s.Insert(key, value)
}

func (t *tracedStore) Get(key int) (string, bool) {
	id, start := t.enter()
	defer t.leave(id, start, 1)
	return t.s.Get(key)
}

func (t *tracedStore) Delete(key int) bool {
	id, start := t.enter()
	defer t.leave(id, start, 1)
	return t.s.Delete(key)
}

func (t *tracedStore) Len() int { return t.s.Len() }

func (t *tracedStore) AscendRange(from, to int, fn func(key int, value string) bool) {
	id, start := t.enter()
	defer t.leave(id, start, 1)
	t.s.AscendRange(from, to, fn)
}

func (t *tracedStore) InsertBatch(items []core.KV[int, string], inserted []bool) int {
	id, start := t.enter()
	defer t.leave(id, start, len(items))
	return t.s.InsertBatch(items, inserted)
}

func (t *tracedStore) GetBatch(keys []int, vals []string, found []bool) int {
	id, start := t.enter()
	defer t.leave(id, start, len(keys))
	return t.s.GetBatch(keys, vals, found)
}

func (t *tracedStore) DeleteBatch(keys []int, deleted []bool) int {
	id, start := t.enter()
	defer t.leave(id, start, len(keys))
	return t.s.DeleteBatch(keys, deleted)
}

func (t *tracedStore) InsertProc(p *core.Proc, key int, value string) bool {
	id, start := t.enter()
	defer t.leave(id, start, 1)
	return t.s.InsertProc(p, key, value)
}

func (t *tracedStore) GetProc(p *core.Proc, key int) (string, bool) {
	id, start := t.enter()
	defer t.leave(id, start, 1)
	return t.s.GetProc(p, key)
}

func (t *tracedStore) DeleteProc(p *core.Proc, key int) bool {
	id, start := t.enter()
	defer t.leave(id, start, 1)
	return t.s.DeleteProc(p, key)
}

func (t *tracedStore) InsertBatchProc(p *core.Proc, items []core.KV[int, string], inserted []bool) int {
	id, start := t.enter()
	defer t.leave(id, start, len(items))
	return t.s.InsertBatchProc(p, items, inserted)
}

func (t *tracedStore) GetBatchProc(p *core.Proc, keys []int, vals []string, found []bool) int {
	id, start := t.enter()
	defer t.leave(id, start, len(keys))
	return t.s.GetBatchProc(p, keys, vals, found)
}

func (t *tracedStore) DeleteBatchProc(p *core.Proc, keys []int, deleted []bool) int {
	id, start := t.enter()
	defer t.leave(id, start, len(keys))
	return t.s.DeleteBatchProc(p, keys, deleted)
}

// nullStore answers every call at once and allocates nothing, so a replay
// against it charges the process's allocations to the server alone. Every
// key is present with one fixed value; the replay does not check replies.
type nullStore struct{ value string }

var _ server.Store = nullStore{}

func (n nullStore) Insert(int, string) bool                      { return true }
func (n nullStore) Get(int) (string, bool)                       { return n.value, true }
func (n nullStore) Delete(int) bool                              { return true }
func (n nullStore) Len() int                                     { return 0 }
func (n nullStore) AscendRange(int, int, func(int, string) bool) {}
func (n nullStore) InsertBatch(items []core.KV[int, string], ok []bool) int {
	for i := range ok {
		ok[i] = true
	}
	return len(items)
}
func (n nullStore) GetBatch(keys []int, vals []string, found []bool) int {
	for i := range keys {
		vals[i], found[i] = n.value, true
	}
	return len(keys)
}
func (n nullStore) DeleteBatch(keys []int, deleted []bool) int {
	for i := range deleted {
		deleted[i] = true
	}
	return len(keys)
}
