package main

import (
	"errors"
	"fmt"
	"io"
	"strconv"
)

// respConn is a RESP2 client connection that allocates nothing per
// command: requests are appended to a reused write buffer and replies are
// parsed in place from a reused read buffer.
type respConn struct {
	c    io.ReadWriteCloser
	wbuf []byte
	rbuf []byte
	r, w int // unread bytes are rbuf[r:w]
}

// dialResp connects to a server over a rawConn. The goroutine using the
// connection should own an OS thread (runtime.LockOSThread): it will spend
// its life blocked in read(2).
func dialResp(addr string) (*respConn, error) {
	c, err := dialRaw(addr)
	if err != nil {
		return nil, err
	}
	return newRespConn(c), nil
}

func newRespConn(c io.ReadWriteCloser) *respConn {
	return &respConn{c: c, wbuf: make([]byte, 0, 64<<10), rbuf: make([]byte, 64<<10)}
}

func (rc *respConn) close() { _ = rc.c.Close() } // nothing left to flush on a client socket

func (rc *respConn) appendOp(o op) {
	switch o.kind {
	case opGet:
		rc.wbuf = append(rc.wbuf, "*2\r\n$3\r\nGET\r\n"...)
		rc.appendKey(o.key)
	case opInsert:
		rc.wbuf = append(rc.wbuf, "*3\r\n$3\r\nSET\r\n"...)
		rc.appendKey(o.key)
		rc.wbuf = append(rc.wbuf, "$64\r\n"...)
		var v [valueLen]byte
		valueBytes(o.key, &v)
		rc.wbuf = append(rc.wbuf, v[:]...)
		rc.wbuf = append(rc.wbuf, '\r', '\n')
	case opDelete:
		rc.wbuf = append(rc.wbuf, "*2\r\n$3\r\nDEL\r\n"...)
		rc.appendKey(o.key)
	}
}

func (rc *respConn) appendKey(key int) {
	var d [20]byte
	s := strconv.AppendInt(d[:0], int64(key), 10)
	rc.wbuf = append(rc.wbuf, '$', byte('0'+len(s)), '\r', '\n') // keys have 1 to 7 digits
	rc.wbuf = append(rc.wbuf, s...)
	rc.wbuf = append(rc.wbuf, '\r', '\n')
}

// flush writes the pending requests in one Write.
func (rc *respConn) flush() error {
	_, err := rc.c.Write(rc.wbuf)
	rc.wbuf = rc.wbuf[:0]
	return err
}

// reply is one parsed RESP reply. kind is the type byte ('+', ':', '$',
// '-'), or '_' for the nil bulk "$-1". bulk and text point into the read
// buffer and are valid until the next readReply.
type reply struct {
	kind byte
	n    int64  // ':' integer
	bulk []byte // '$' payload
	text []byte // '+' or '-' line
}

var errReplySyntax = errors.New("malformed RESP reply")

func (rc *respConn) fill() error {
	if rc.r > 0 {
		copy(rc.rbuf, rc.rbuf[rc.r:rc.w])
		rc.w -= rc.r
		rc.r = 0
	}
	if rc.w == len(rc.rbuf) {
		return errors.New("RESP reply exceeds the read buffer")
	}
	n, err := rc.c.Read(rc.rbuf[rc.w:])
	rc.w += n
	if n > 0 {
		return nil
	}
	return err
}

// line returns the next CRLF-terminated line without its terminator.
// Reply lines are a few bytes long, so rescanning after a fill costs nothing.
func (rc *respConn) line() ([]byte, error) {
	for {
		for i := rc.r; i+1 < rc.w; i++ {
			if rc.rbuf[i] == '\r' && rc.rbuf[i+1] == '\n' {
				l := rc.rbuf[rc.r:i]
				rc.r = i + 2
				return l, nil
			}
		}
		if err := rc.fill(); err != nil {
			return nil, err
		}
	}
}

func (rc *respConn) readReply() (reply, error) {
	l, err := rc.line()
	if err != nil {
		return reply{}, err
	}
	if len(l) == 0 {
		return reply{}, errReplySyntax
	}
	rp := reply{kind: l[0]}
	switch l[0] {
	case '+', '-':
		rp.text = l[1:]
	case ':':
		n, ok := parseInt(l[1:])
		if !ok {
			return reply{}, errReplySyntax
		}
		rp.n = n
	case '$':
		n, ok := parseInt(l[1:])
		if !ok {
			return reply{}, errReplySyntax
		}
		if n < 0 {
			rp.kind = '_'
			break
		}
		// The header line may move when the buffer compacts; nothing of
		// it is needed past this point.
		for rc.w-rc.r < int(n)+2 {
			if err := rc.fill(); err != nil {
				return reply{}, err
			}
		}
		rp.bulk = rc.rbuf[rc.r : rc.r+int(n)]
		rc.r += int(n) + 2
	default:
		return reply{}, fmt.Errorf("%w: type byte %q", errReplySyntax, l[0])
	}
	return rp, nil
}

func parseInt(b []byte) (int64, bool) {
	neg := len(b) > 0 && b[0] == '-'
	if neg {
		b = b[1:]
	}
	if len(b) == 0 {
		return 0, false
	}
	var n int64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int64(c-'0')
	}
	if neg {
		n = -n
	}
	return n, true
}

// roundTrip sends one bare command (PING, DBSIZE) and reads its reply.
func (rc *respConn) roundTrip(verb string) (reply, error) {
	rc.wbuf = append(rc.wbuf, "*1\r\n$"...)
	rc.wbuf = strconv.AppendInt(rc.wbuf, int64(len(verb)), 10)
	rc.wbuf = append(rc.wbuf, '\r', '\n')
	rc.wbuf = append(rc.wbuf, verb...)
	rc.wbuf = append(rc.wbuf, '\r', '\n')
	if err := rc.flush(); err != nil {
		return reply{}, err
	}
	return rc.readReply()
}

// keyModel is one connection's exact model of the keys it alone writes
// (key ≡ residue mod stride): a presence bit per key.
type keyModel struct {
	present         []uint64
	stride, residue int
}

// newKeyModel returns the model of one connection; prefilled marks every
// even key it owns as present, as the wire prefill does.
func newKeyModel(stride, residue int, prefilled bool) *keyModel {
	m := &keyModel{present: make([]uint64, keySpace/64), stride: stride, residue: residue}
	if prefilled {
		for k := 0; k < keySpace; k += 2 {
			if m.owns(k) {
				m.present[k>>6] |= 1 << (k & 63)
			}
		}
	}
	return m
}

func (m *keyModel) owns(key int) bool { return key%m.stride == m.residue }

func (m *keyModel) has(key int) bool { return m.present[key>>6]>>(key&63)&1 == 1 }

func (m *keyModel) count() int {
	n := 0
	for k := m.residue; k < keySpace; k += m.stride {
		if m.has(k) {
			n++
		}
	}
	return n
}

// check compares the reply to op o with the model, updates the model, and
// reports whether the reply was right in type and value. A GET of a key
// another connection writes may see either state, but never a wrong value.
func (m *keyModel) check(o op, rp reply) bool {
	switch o.kind {
	case opGet:
		switch rp.kind {
		case '$':
			return valueOK(o.key, rp.bulk) && (!m.owns(o.key) || m.has(o.key))
		case '_':
			return !m.owns(o.key) || !m.has(o.key)
		}
		return false
	case opInsert:
		m.apply(o)
		return rp.kind == '+' && string(rp.text) == "OK"
	case opDelete:
		var want int64
		if m.has(o.key) {
			want = 1
		}
		m.apply(o)
		return rp.kind == ':' && rp.n == want
	}
	return false
}

// apply records the effect of o on the model; a GET has none.
func (m *keyModel) apply(o op) {
	switch o.kind {
	case opInsert:
		m.present[o.key>>6] |= 1 << (o.key & 63)
	case opDelete:
		m.present[o.key>>6] &^= 1 << (o.key & 63)
	}
}
