package server

import (
	"bufio"
	"bytes"
	"cmp"
	"errors"
	"net"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/instrument"
	"repro/internal/telemetry"
	"repro/internal/wal"
)

// conn is one client connection, served start to finish by one goroutine
// (the one that called serve). It detects the wire dialect (line
// protocol, or RESP2 when the first byte is '*'), then loops: block for
// one request, absorb — never blocking for more — every complete request
// the client has already pipelined, execute the run — turning each
// stretch of point commands into at most one sorted batch call per verb
// against the store, cut only where a key recurs under another verb —
// write the responses in request order, flush them with a single
// vectored write, and read again.
//
// Steady-state operation allocates nothing: parsed entries live in one
// run slice reused across runs, SET values intern into the connection's
// chunk arena, batch scratch and the reply buffer are reused across runs,
// and replies are assembled from interned literals.
type conn struct {
	srv *Server
	nc  net.Conn
	br  *bufio.Reader

	draining atomic.Bool

	// parse state.
	resp    bool       // wire dialect: RESP2 when true, line protocol otherwise
	lineBuf []byte     // scratch reused across readLine calls
	respBuf []byte     // scratch reused across RESP bulk reads
	arena   valueArena // SET values intern here, handed on to the store
	run     []entry    // the current run's requests, cleared after it is answered

	// reply state.
	rep *replySet   // interned reply literals for the connection's dialect
	w   replyWriter // per-run reply buffer, flushed vectored

	// batch scratch, reused across coalesced runs: a stretch's positions in
	// key order, each position's result slot, the sorted inputs, and the
	// result slices.
	ord    []int
	slot   []int
	keys   []int
	items  []core.KV[int, string]
	vals   []string
	flags  []bool
	rpairs []kvPair // RANGE result scratch

	scratchNum [24]byte // integer-rendering scratch for responses

	// observability state, touched only when srv.obs != nil. pend holds
	// the current run's executed units so their shared read-complete-to-
	// write-flushed latency can be recorded once the flush lands;
	// queueWait is the current run's read-complete-to-execute-start wait,
	// copied into trace records. proc/procStats are the pre-allocated
	// attribution context attached to sampled store calls — per-connection,
	// so the sampled hot path never allocates.
	pend      []pendUnit
	queueWait int64
	proc      core.Proc
	procStats core.OpStats

	// walMax is the highest WAL LSN this connection's applied mutations
	// have been assigned; in sync-durability mode flush holds the run's
	// replies until the log reports it durable.
	walMax uint64
}

// kvPair is one RANGE result, buffered so an oversized scan can fail
// cleanly before any output is framed.
type kvPair struct {
	k int
	v string
}

// pendUnit is one executed unit (point command or coalesced batch)
// awaiting its post-flush latency record.
type pendUnit struct {
	verb  Verb
	class uint8
	n     uint32
}

// entry is one parsed request: a command, or the parse error to answer.
type entry struct {
	cmd Command
	err error
}

func newConn(s *Server, nc net.Conn) *conn {
	c := &conn{
		srv: s,
		nc:  nc,
		br:  bufio.NewReaderSize(nc, 8<<10),
		rep: &lineReplies,
	}
	c.proc.Stats = &c.procStats
	return c
}

// serve is the connection's lifetime: read a run, answer it, flush, until
// the transport errors, the client quits, or a drain deadline expires. A
// run cut short by any of these is still answered before the close. The
// run slice is cleared after each run so its parked capacity cannot pin
// value strings (and through them arena chunks) past their run.
func (c *conn) serve() {
	defer c.srv.remove(c)
	for more := c.detectDialect(); more; {
		more = c.readRun()
		if len(c.run) == 0 {
			break
		}
		var enq int64 // read-complete instant: the zero point of the run's latencies
		if c.srv.obs != nil {
			enq = telemetry.Nanotime()
		}
		c.execute(c.run, enq)
		if c.flush() != nil {
			more = false
		}
		c.finishObs(enq)
		clear(c.run)
		c.run = c.run[:0]
	}
	c.nc.Close()
}

// readRun blocks for one request, then absorbs into c.run — without
// blocking — every complete request the client has already pipelined, up
// to MaxBatch. A QUIT ends the run. Returns false when the connection
// closes after this run: the client quit, or the transport died, an idle
// deadline expired or the drain window closed (then c.run holds only what
// was parsed before).
func (c *conn) readRun() (more bool) {
	c.armReadDeadline()
	for {
		e, err := c.readEntry()
		if err != nil {
			return false
		}
		c.run = append(c.run, e)
		if e.err == nil && e.cmd.Verb == VerbQuit {
			return false
		}
		if len(c.run) >= c.srv.cfg.MaxBatch || !c.bufferedEntry() {
			return true
		}
	}
}

// startDrain puts the connection into shutdown draining: it keeps reading
// for DrainGrace — answering commands already on the wire — then stops
// accepting input, finishes the run in hand, flushes, and closes.
func (c *conn) startDrain() {
	c.draining.Store(true)
	c.nc.SetReadDeadline(time.Now().Add(c.srv.cfg.DrainGrace))
}

// armReadDeadline sets the idle deadline for the next blocking read. The
// re-check closes the race with startDrain: whichever order the two run
// in, the connection ends up with the short drain deadline. A negative
// ReadTimeout disables idle deadlines entirely (net.Pipe test transports
// allocate per SetReadDeadline call, which would poison the allocation
// pins); draining still arms its own deadline through startDrain.
func (c *conn) armReadDeadline() {
	if c.draining.Load() || c.srv.cfg.ReadTimeout < 0 {
		return
	}
	c.nc.SetReadDeadline(time.Now().Add(c.srv.cfg.ReadTimeout))
	if c.draining.Load() {
		c.nc.SetReadDeadline(time.Now().Add(c.srv.cfg.DrainGrace))
	}
}

// detectDialect peeks the connection's first byte without consuming it:
// '*' can only open a RESP multibulk frame, anything else is the line
// protocol (or a RESP inline command, which shares its grammar). The
// choice is sticky for the connection's lifetime. Returns false when the
// transport dies before the first byte.
func (c *conn) detectDialect() bool {
	c.armReadDeadline()
	b, err := c.br.Peek(1)
	if err != nil {
		return false
	}
	if b[0] == '*' {
		c.resp = true
		c.rep = &respReplies
		c.srv.addCounter(instrument.CtrConnResp, 1)
	}
	return true
}

// readEntry reads and parses one request in the connection's dialect. The
// returned error is transport-fatal; per-request failures travel inside
// the entry.
func (c *conn) readEntry() (entry, error) {
	if c.resp {
		return c.readRespEntry()
	}
	return c.readLineEntry()
}

func (c *conn) readLineEntry() (entry, error) {
	line, err := c.readLine()
	switch {
	case err == nil:
		cmd, cerr := parseCommand(line, &c.arena)
		return entry{cmd: cmd, err: cerr}, nil
	case errors.Is(err, ErrLineTooLong):
		return entry{err: err}, nil
	default:
		return entry{}, err
	}
}

// bufferedEntry reports whether a complete request is already sitting in
// the read buffer, i.e. whether readEntry can run without blocking.
func (c *conn) bufferedEntry() bool {
	if c.resp {
		return c.bufferedResp()
	}
	return c.bufferedLine()
}

// bufferedLine reports whether a complete request line is already sitting
// in the read buffer, i.e. whether readLine can run without blocking.
func (c *conn) bufferedLine() bool {
	n := c.br.Buffered()
	if n == 0 {
		return false
	}
	b, _ := c.br.Peek(n)
	return bytes.IndexByte(b, '\n') >= 0
}

// readLine reads one '\n'-terminated line, reusing the connection's
// scratch buffer. A line longer than MaxLineBytes is consumed to its
// newline and reported as ErrLineTooLong — the request fails, the stream
// stays in sync, and the connection keeps serving.
func (c *conn) readLine() ([]byte, error) {
	max := c.srv.cfg.MaxLineBytes
	line := c.lineBuf[:0]
	tooLong := false
	for {
		frag, err := c.br.ReadSlice('\n')
		if tooLong {
			switch {
			case err == nil:
				return nil, ErrLineTooLong
			case errors.Is(err, bufio.ErrBufferFull):
				continue // keep discarding the oversized line
			default:
				return nil, err
			}
		}
		line = append(line, frag...)
		c.lineBuf = line[:0]
		switch {
		case err == nil:
			line = line[:len(line)-1] // strip '\n'
			if len(line) > max {
				return nil, ErrLineTooLong
			}
			return line, nil
		case errors.Is(err, bufio.ErrBufferFull):
			if len(line) > max {
				tooLong = true
			}
		default:
			return nil, err
		}
	}
}

// execute answers one run. Parse errors answer -ERR in place and the
// non-point verbs execute singly, in place; both are barriers. What lies
// between two barriers is a stretch of point commands (SET/GET/DEL), and
// every stretch, a lone command included, goes to executePoints. Responses
// land in request order. enq is the run's read-complete instant (0 without
// observability).
func (c *conn) execute(e []entry, enq int64) {
	if c.srv.obs != nil {
		c.queueWait = telemetry.Nanotime() - enq
		c.srv.obs.recordQueueWait(c.queueWait)
		c.pend = c.pend[:0]
	}
	for i := 0; i < len(e); {
		if e[i].err != nil {
			c.writeErr(e[i].err)
			i++
			continue
		}
		j := i
		for j < len(e) && e[j].err == nil && e[j].cmd.Verb.batchable() {
			j++
		}
		if j > i {
			c.executePoints(e[i:j])
			i = j
			continue
		}
		c.executeSingle(e[i].cmd)
		i++
	}
}

// executePoints answers a stretch of point commands, whatever their verbs.
// The unit of ordering is the key. The commands of a run were all received
// before any of them was answered, so they are pairwise concurrent and any
// order among commands on DIFFERENT keys is a linearization; commands on
// the same key must take effect in request order. The stretch is therefore
// cut into segments in which no key occurs under two verbs, and a segment
// executes as three classes - its GETs, its SETs, its DELs - each in one
// store call, whatever the order the client interleaved them in. Inside a
// class, commands on one key are same-verb duplicates and resolve as
// concurrent single commands would: one arbitrary winner.
//
// One sort of the positions by (key, position) serves both purposes: it is
// the order the batch calls want, and it puts a command that conflicts with
// an earlier one right behind it, so finding the cuts is a scan of
// neighbours, not of pairs.
func (c *conn) executePoints(e []entry) {
	n := len(e)
	ord := c.ord[:0]
	for i := 0; i < n; i++ {
		ord = append(ord, i)
	}
	slices.SortFunc(ord, func(a, b int) int {
		if d := cmp.Compare(e[a].cmd.Key, e[b].cmd.Key); d != 0 {
			return d
		}
		return cmp.Compare(a, b)
	})
	c.ord = ord
	for from, to := 0, 0; from < n; from = to {
		// The segment ends before the first command that repeats, under
		// another verb, the key of a command at or after from.
		to = n
		for m := 1; m < n; m++ {
			a, b := ord[m-1], ord[m]
			if a >= from && b < to && e[a].cmd.Key == e[b].cmd.Key && e[a].cmd.Verb != e[b].cmd.Verb {
				to = b
			}
		}
		c.executeSegment(e, from, to)
	}
}

// executeSegment answers e[from:to], a segment in which no key occurs
// under two verbs; c.ord holds the stretch's positions in key order. A
// class of one command uses the point method - a one-key batch would pay
// the batch's set-up for nothing - and an empty class makes no call.
// Replies, and the log records of the mutations that took effect, are
// written in request order once all three classes have executed.
func (c *conn) executeSegment(e []entry, from, to int) {
	var gets, dels int
	for _, en := range e[from:to] {
		switch en.cmd.Verb {
		case VerbGet:
			gets++
		case VerbDel:
			dels++
		}
	}
	// Result slots: the GETs' first, then the DELs', then the SETs'; slot[p]
	// is where the command at position p finds its result.
	keys := growTo(&c.keys, gets+dels)
	items := c.items[:0]
	slot := growTo(&c.slot, len(e))
	g, d := 0, gets
	for _, p := range c.ord {
		if p < from || p >= to {
			continue
		}
		switch cmd := &e[p].cmd; cmd.Verb {
		case VerbGet:
			keys[g], slot[p] = cmd.Key, g
			g++
		case VerbDel:
			keys[d], slot[p] = cmd.Key, d
			d++
		default:
			slot[p] = gets + dels + len(items)
			items = append(items, core.KV[int, string]{Key: cmd.Key, Value: cmd.Value})
		}
	}
	c.items = items
	flags := growTo(&c.flags, to-from)
	vals := growTo(&c.vals, gets)
	c.storeGets(keys[:gets], vals, flags[:gets])
	c.storeDels(keys[gets:], flags[gets:gets+dels])
	c.storeSets(items, flags[gets+dels:])

	for p := from; p < to; p++ {
		m := slot[p]
		switch e[p].cmd.Verb {
		case VerbGet:
			c.writeValue(vals[m], flags[m])
		case VerbDel:
			if flags[m] && c.srv.wal != nil {
				c.logMutation(wal.OpDel, keys[m], "")
			}
			c.writeBool(flags[m])
		default:
			if it := items[m-gets-dels]; flags[m] && c.srv.wal != nil {
				c.logMutation(wal.OpSet, it.Key, it.Value)
			}
			c.writeSetReply(flags[m])
		}
	}
}

// storeGets runs one class of a segment against the store: sorted keys in,
// results positional. storeDels and storeSets are its twins.
func (c *conn) storeGets(keys []int, vals []string, found []bool) {
	if len(keys) == 0 {
		return
	}
	p, sampled, start := c.beginUnit(true)
	if len(keys) == 1 {
		vals[0], found[0] = c.srv.ps.GetProc(p, keys[0])
	} else {
		c.srv.ps.GetBatchProc(p, keys, vals, found)
	}
	c.endUnit(VerbGet, keys[0], len(keys), sampled, p, start)
}

func (c *conn) storeDels(keys []int, deleted []bool) {
	if len(keys) == 0 {
		return
	}
	p, sampled, start := c.beginUnit(true)
	if len(keys) == 1 {
		deleted[0] = c.srv.ps.DeleteProc(p, keys[0])
	} else {
		c.srv.ps.DeleteBatchProc(p, keys, deleted)
	}
	c.endUnit(VerbDel, keys[0], len(keys), sampled, p, start)
}

func (c *conn) storeSets(items []core.KV[int, string], inserted []bool) {
	if len(items) == 0 {
		return
	}
	p, sampled, start := c.beginUnit(true)
	if len(items) == 1 {
		inserted[0] = c.srv.ps.InsertProc(p, items[0].Key, items[0].Value)
	} else {
		c.srv.ps.InsertBatchProc(p, items, inserted)
	}
	c.endUnit(VerbSet, items[0].Key, len(items), sampled, p, start)
}

// beginUnit opens one unit - a point command or one class of a segment -
// for observability: it ticks the trace sampler and, for a sampled unit
// whose execution is attributable (store calls that can carry a Proc),
// returns the connection's pre-allocated Proc, reset, so the unit's trace
// carries exact step counts. Every other unit gets a nil Proc, which the
// store treats as its plain method.
func (c *conn) beginUnit(attributable bool) (p *core.Proc, sampled bool, start int64) {
	obs := c.srv.obs
	if obs == nil {
		return nil, false, 0
	}
	sampled = obs.sampleNext()
	if sampled && attributable && c.srv.attrib {
		c.procStats.Reset()
		p = &c.proc
	}
	return p, sampled, telemetry.Nanotime()
}

// endUnit closes a unit of n commands of verb v: commands that rode in a
// batch call count as coalesced, and the unit is noted for observability.
func (c *conn) endUnit(v Verb, key, n int, sampled bool, p *core.Proc, start int64) {
	if n >= 2 {
		c.srv.addCounter(instrument.CtrCmdsCoalesced, uint64(n))
	}
	if c.srv.obs != nil {
		c.noteUnit(v, key, n, telemetry.Nanotime()-start, sampled, p)
	}
}

// growTo resizes *s to length n, reusing capacity.
func growTo[T any](s *[]T, n int) []T {
	if cap(*s) < n {
		*s = make([]T, n)
	}
	*s = (*s)[:n]
	return *s
}

// executeSingle answers one non-point command: PING, LEN, RANGE or QUIT.
// A QUIT is only answered: readRun ends the run at it and closes the
// connection after.
func (c *conn) executeSingle(cmd Command) {
	// Sampling ticks on every unit, but none of these verbs is one store
	// call that can carry a Proc: a sampled PING or RANGE still produces a
	// trace record — wall time, batch size, queue wait — with zero step
	// counts.
	_, sampled, start := c.beginUnit(false)
	switch cmd.Verb {
	case VerbPing:
		c.w.literal(c.rep.pong)
	case VerbLen:
		c.writeInt(c.srv.store.Len())
	case VerbRange:
		c.executeRange(cmd.Key, cmd.Hi)
	case VerbQuit:
		c.w.literal(c.rep.ok)
	}
	c.endUnit(cmd.Verb, cmd.Key, 1, sampled, nil, start)
}

// noteUnit records one executed unit: its batch-size sample, its pending
// latency record (completed after the flush), the slow-command counter,
// and — when the unit is trace-sampled or slow — its trace record. p is
// the Proc the unit's store call ran with: when non-nil, the trace's step
// counts are exact rather than zero.
func (c *conn) noteUnit(v Verb, key, n int, elapsed int64, sampled bool, p *core.Proc) {
	obs := c.srv.obs
	obs.recordBatch(v, n)
	c.pend = append(c.pend, pendUnit{verb: v, class: uint8(batchClass(n)), n: uint32(n)})
	slow := elapsed >= obs.slowNanos
	if slow {
		c.srv.addCounter(instrument.CtrCmdsSlow, uint64(n))
	}
	if !sampled && !slow {
		return
	}
	var stats *core.OpStats
	if p != nil {
		stats = p.Stats
	}
	obs.trace(v, key, n, elapsed, c.queueWait, sampled, slow, stats)
}

// finishObs completes the latency records of the just-flushed run: every
// command in it shares the run's read-complete-to-write-flushed span.
func (c *conn) finishObs(enq int64) {
	obs := c.srv.obs
	if obs == nil || len(c.pend) == 0 {
		return
	}
	now := telemetry.Nanotime()
	for _, p := range c.pend {
		obs.recordLatency(p.verb, int(p.class), now-enq, uint64(p.n))
	}
	c.pend = c.pend[:0]
}

// executeRange collects [lo, hi) up to MaxRange pairs before writing
// anything, so an oversized scan can fail cleanly with -ERR instead of a
// truncated multi-line answer. The pair buffer is connection scratch,
// cleared after framing so parked capacity never pins store values.
func (c *conn) executeRange(lo, hi int) {
	maxR := c.srv.cfg.MaxRange
	pairs := c.rpairs[:0]
	over := false
	c.srv.store.AscendRange(lo, hi, func(k int, v string) bool {
		if len(pairs) >= maxR {
			over = true
			return false
		}
		pairs = append(pairs, kvPair{k, v})
		return true
	})
	if over {
		clear(pairs)
		c.rpairs = pairs[:0]
		c.writeErr(errors.New("range result exceeds " + strconv.Itoa(maxR) + " keys"))
		return
	}
	if !c.resp {
		// Same framing rule as writeValue: one unrepresentable value fails
		// the whole scan before any output is framed.
		for _, p := range pairs {
			if strings.IndexByte(p.v, '\n') >= 0 {
				clear(pairs)
				c.rpairs = pairs[:0]
				c.writeErr(errValueNotLine)
				return
			}
		}
	}
	if c.resp {
		// Flat array of alternating key and value bulks, Redis-style.
		c.w.writeByte('*')
		c.w.appendInt(int64(2 * len(pairs)))
		c.w.literal("\r\n")
		for _, p := range pairs {
			num := strconv.AppendInt(c.numBuf(), int64(p.k), 10)
			c.w.writeByte('$')
			c.w.appendInt(int64(len(num)))
			c.w.literal("\r\n")
			c.w.bytes(num)
			c.w.literal("\r\n")
			c.w.writeByte('$')
			c.w.appendInt(int64(len(p.v)))
			c.w.literal("\r\n")
			c.w.value(p.v)
			c.w.literal("\r\n")
		}
	} else {
		c.w.writeByte('*')
		c.w.appendInt(int64(len(pairs)))
		c.w.literal("\n")
		for _, p := range pairs {
			c.w.appendInt(int64(p.k))
			c.w.writeByte(' ')
			c.w.value(p.v)
			c.w.literal("\n")
		}
	}
	clear(pairs)
	c.rpairs = pairs[:0]
}

func (c *conn) numBuf() []byte { return c.scratchNum[:0] }

// writeBool answers a point command's success flag as :1/:0.
func (c *conn) writeBool(ok bool) {
	if ok {
		c.w.literal(c.rep.yes)
	} else {
		c.w.literal(c.rep.no)
	}
}

// writeSetReply answers a SET. The line protocol reports the insert flag
// (:1 inserted, :0 duplicate); RESP answers +OK like Redis regardless —
// RESP clients expect a status string, and values here are immutable
// insert-if-absent, so +OK on a duplicate means "the key holds a value",
// which is the contract RESP callers act on.
func (c *conn) writeSetReply(ok bool) {
	if c.resp {
		c.w.literal(c.rep.ok)
		return
	}
	c.writeBool(ok)
}

func (c *conn) writeInt(n int) {
	c.w.writeByte(':')
	c.w.appendInt(int64(n))
	c.w.literal(c.rep.eol)
}

// errValueNotLine answers a line-dialect read of a value the line
// protocol cannot frame; the message is part of the wire contract (see
// README's "RESP compatibility" note).
var errValueNotLine = errors.New("value not line-representable")

// writeValue frames a GET hit. RESP bulks are length-prefixed, so any
// byte sequence round-trips; the line dialect frames by newline with no
// length prefix, so a value containing '\n' (storable only via RESP SET,
// since line-protocol parsing splits on newlines) cannot be framed —
// emitting it raw would desync the reader's framing for the rest of the
// connection. Such a read answers -ERR value not line-representable
// instead: the request fails, the stream stays in sync.
func (c *conn) writeValue(v string, ok bool) {
	if !ok {
		c.w.literal(c.rep.miss)
		return
	}
	if c.resp {
		c.w.writeByte('$')
		c.w.appendInt(int64(len(v)))
		c.w.literal("\r\n")
		c.w.value(v)
		c.w.literal("\r\n")
		return
	}
	if strings.IndexByte(v, '\n') >= 0 {
		c.writeErr(errValueNotLine)
		return
	}
	c.w.writeByte('$')
	c.w.value(v)
	c.w.literal("\n")
}

func (c *conn) writeErr(err error) {
	c.w.literal(c.rep.errp)
	c.w.literal(err.Error())
	c.w.literal(c.rep.eol)
}

// logMutation appends an applied mutation to the WAL — always after
// the store apply, at the reply site, so per-connection per-key program
// order equals log order — and tracks the run's highest LSN for the
// sync-mode flush hold. The append copies the record into the log's
// buffer without allocating; the fsync happens in a later commit.
func (c *conn) logMutation(op wal.Op, key int, val string) {
	lsn := c.srv.wal.Append(op, int64(key), val)
	if lsn > c.walMax {
		c.walMax = lsn
	}
}

// flush pushes the run's assembled replies to the client in one vectored
// write under the write deadline. A negative WriteTimeout disables the
// deadline (see armReadDeadline). In sync-durability mode the flush
// first waits for the run's mutations to be fsync-durable: an ack a
// client can observe implies the write survives a crash. A log failure
// poisons the connection — the replies it holds can no longer be
// honored, so the connection drops rather than lie.
func (c *conn) flush() error {
	if c.walMax > 0 {
		if c.srv.walSync {
			if err := c.srv.wal.WaitDurable(c.walMax); err != nil {
				return err
			}
		}
		c.walMax = 0
	}
	n := c.w.buffered()
	if n == 0 {
		return nil
	}
	if c.srv.cfg.WriteTimeout >= 0 {
		c.nc.SetWriteDeadline(time.Now().Add(c.srv.cfg.WriteTimeout))
	}
	err := c.w.flush(c.nc)
	if err == nil {
		c.srv.addCounter(instrument.CtrWireFlushes, 1)
		if c.srv.obs != nil {
			c.srv.obs.recordFlush(int64(n))
		}
	}
	return err
}
