// wire.go is the allocation-free half of the serving layer's data plane:
// a per-connection chunk arena that SET parsing interns values into, the
// interned static reply literals for both wire dialects, and a reply
// writer that assembles a whole coalesced run into one recycled buffer
// and hands it to the kernel in a single vectored write (net.Buffers,
// i.e. writev) — one syscall per pipelined stretch, zero heap traffic in
// steady state.
package server

import (
	"net"
	"strconv"
	"strings"
	"unsafe"
)

// arenaChunkBytes is the value arena's chunk size. Values longer than a
// chunk get a dedicated chunk of their own length; everything else packs
// into the shared chunk, so N pipelined SETs of small values cost one
// allocation per ~chunkful instead of one per value.
const arenaChunkBytes = 16 << 10

// valueArena interns []byte payloads as strings packed into shared
// chunks. The trick is strings.Builder's append-only contract: a string
// returned by Builder.String is a view of the builder's current bytes,
// and later writes only ever append past them, so slicing String() at the
// pre-write length yields an immutable string of just-written bytes
// without copying them again — no unsafe needed on the parse side.
//
// Lifetime: interned strings are handed to the store, which retains them
// for the life of the key (see DESIGN.md §10). The arena therefore never
// reuses chunk memory — a full chunk is abandoned to the values cut from
// it and a fresh one started. What is amortized is the allocation count,
// not the bytes: values were always copied once off the read buffer; now
// many values share one allocation instead of getting one each.
type valueArena struct {
	b *strings.Builder
}

// intern copies val into the arena and returns it as a string.
func (a *valueArena) intern(val []byte) string {
	if a.b == nil || a.b.Cap()-a.b.Len() < len(val) {
		a.b = &strings.Builder{}
		n := arenaChunkBytes
		if len(val) > n {
			n = len(val)
		}
		a.b.Grow(n)
	}
	start := a.b.Len()
	a.b.Write(val)
	return a.b.String()[start:]
}

// internValue is the parser's value seam: with an arena it interns, and
// without one (the exported ParseCommand path) it behaves like the
// original string(val) copy.
func internValue(val []byte, a *valueArena) string {
	if a == nil {
		return string(val)
	}
	return a.intern(val)
}

// replySet interns one dialect's static reply literals so the hot path
// never formats a status, calls err.Error(), or re-renders a terminator.
type replySet struct {
	eol  string // line terminator ("\n" line dialect, "\r\n" RESP)
	pong string // PING
	ok   string // QUIT ack; RESP SET ack
	yes  string // :1 — successful SET/DEL
	no   string // :0 — duplicate SET / absent DEL
	miss string // GET miss ("_" line dialect, nil bulk "$-1" RESP)
	errp string // "-ERR " prefix, completed by the error text
}

var (
	lineReplies = replySet{
		eol:  "\n",
		pong: "+PONG\n",
		ok:   "+OK\n",
		yes:  ":1\n",
		no:   ":0\n",
		miss: "_\n",
		errp: "-ERR ",
	}
	respReplies = replySet{
		eol:  "\r\n",
		pong: "+PONG\r\n",
		ok:   "+OK\r\n",
		yes:  ":1\r\n",
		no:   ":0\r\n",
		miss: "$-1\r\n",
		errp: "-ERR ",
	}
)

// bigValueBytes is the splice threshold: reply values at least this long
// are not copied into the reply buffer but referenced in place and handed
// to writev as their own iovec. Below it, copying into the contiguous
// buffer is cheaper than growing the vector.
const bigValueBytes = 1 << 10

// maxRetainedWire caps how much reply-buffer capacity a connection keeps
// across runs, so one huge RANGE does not pin its high-water mark forever.
const maxRetainedWire = 64 << 10

// bigRef is a value spliced into the reply stream at byte offset off of
// the framing buffer.
type bigRef struct {
	off int
	val string
}

// replyWriter accumulates one run's replies. Framing bytes and small
// values append to out; big values are recorded as splice points. flush
// writes everything with a single net.Buffers.WriteTo (writev when the
// connection supports it) and resets for the next run, keeping the
// backing arrays.
type replyWriter struct {
	out  []byte
	big  []bigRef
	vecs [][]byte // flush scratch, backing reused across runs
}

func (w *replyWriter) literal(s string) { w.out = append(w.out, s...) }
func (w *replyWriter) writeByte(c byte) { w.out = append(w.out, c) }
func (w *replyWriter) bytes(b []byte)   { w.out = append(w.out, b...) }

// appendInt renders n in decimal directly into the framing buffer.
func (w *replyWriter) appendInt(n int64) { w.out = strconv.AppendInt(w.out, n, 10) }

// value appends a reply value, by copy when small and by reference when
// large. Referenced strings are read-only for writev and released at
// flush; they are immutable store values, so sharing them is safe.
func (w *replyWriter) value(v string) {
	if len(v) >= bigValueBytes {
		w.big = append(w.big, bigRef{off: len(w.out), val: v})
		return
	}
	w.out = append(w.out, v...)
}

// buffered returns the total reply bytes pending flush.
func (w *replyWriter) buffered() int {
	n := len(w.out)
	for i := range w.big {
		n += len(w.big[i].val)
	}
	return n
}

// flush writes all pending bytes to nc in one call and resets the writer.
// With no splice points it is a plain Write; otherwise the framing buffer
// is cut at each splice offset and interleaved with the referenced values
// into one vectored write.
func (w *replyWriter) flush(nc net.Conn) error {
	var err error
	if len(w.big) == 0 {
		if len(w.out) > 0 {
			_, err = nc.Write(w.out)
		}
	} else {
		v := w.vecs[:0]
		prev := 0
		for i := range w.big {
			if off := w.big[i].off; off > prev {
				v = append(v, w.out[prev:off])
				prev = off
			}
			v = append(v, stringBytes(w.big[i].val))
		}
		if prev < len(w.out) {
			v = append(v, w.out[prev:])
		}
		// WriteTo consumes the net.Buffers slice header it is given, not
		// ours; clear ours afterwards so no flushed value stays pinned.
		bufs := net.Buffers(v)
		_, err = bufs.WriteTo(nc)
		clear(v)
		w.vecs = v[:0]
	}
	w.out = w.out[:0]
	w.big = w.big[:0]
	if cap(w.out) > maxRetainedWire {
		w.out = nil
	}
	return err
}

// stringBytes returns a read-only byte view of s without copying. Callers
// must never write through it; here it only feeds writev. This file is one
// of the three the repo allows to import unsafe (with internal/core's
// word.go and internal/instrument's stripe hash), and the alternative —
// copying every large reply value — is the allocation this file exists to
// remove.
func stringBytes(s string) []byte {
	return unsafe.Slice(unsafe.StringData(s), len(s))
}
