// Package wal is the append-only operation log behind lflserver's
// durability modes: a write-ahead log with leader/follower group commit.
//
// Append frames each record straight into one in-memory buffer under the
// log's mutex: the LSN, the CRC frame and the copy of the value all
// happen before it returns, with no allocation and no syscall. A commit
// swaps that buffer for a preallocated spare, writes it to the active
// segment, fsyncs and advances the durable LSN, while appends keep
// framing into the other buffer. Commits are serialized by a second
// mutex, which is the writer queue of LevelDB and RocksDB: a WaitDurable
// caller whose LSN is not yet durable commits as the leader, and the
// callers queued behind it find their LSN already covered. One committer
// goroutine commits each batch one FsyncWindow after its first record,
// and an Append that finds the buffer full commits inline, so memory
// stays bounded with no knob.
//
// On-disk format: segments named wal-%016d.seg by the sequence number
// of their first record, each a stream of frames
//
//	[4B little-endian payload length][4B CRC32-C of payload][payload]
//	payload = [1B op][8B seq][8B key][value bytes (OpSet only)]
//
// Sequence numbers (LSNs) are assigned under the log mutex in buffer
// order, start at 1, and are strictly continuous across segments, so
// recovery can verify the log's integrity record by record. A torn or
// corrupted frame — a crash mid-append, a bit flip — truncates the log
// to the last valid prefix instead of failing boot; see Open.
//
// Ordering contract: records are appended in each connection's reply
// order, so per-connection per-key program order is exactly the log
// order. Mutations of one key racing across connections may be logged
// in the opposite of their apply order, and a crash can then resurrect
// a deleted key: TestDurabilityCrossConnectionRaceResurrects in
// internal/server reproduces it (DESIGN.md Section 13).
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/instrument"
	"repro/internal/telemetry"
)

// Op tags one logged mutation.
type Op byte

const (
	// OpSet records a successful insert of key with the payload value.
	OpSet Op = 1
	// OpDel records a successful delete of key.
	OpDel Op = 2
)

const (
	frameHeader  = 8         // 4B length + 4B CRC
	recFixed     = 1 + 8 + 8 // op + seq + key
	maxFrameLoad = 1 << 26   // scan sanity cap on one payload
	segPrefix    = "wal-"
	segSuffix    = ".seg"
	// bufCap is the capacity of each of the two frame buffers. An Append
	// whose frame does not fit commits the full buffer first; a single
	// frame larger than this grows its buffer to fit.
	bufCap = 256 << 10
)

// crcTable is CRC32-C (Castagnoli): hardware-accelerated on amd64/arm64,
// so framing costs little on the appending goroutine.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Options configures Open. The zero value of every field gets a usable
// default except Dir, which is required.
type Options struct {
	// Dir is the directory holding segments (and snapshots, by
	// convention). Created if absent.
	Dir string
	// FsyncWindow is the group-commit window: the committer goroutine
	// commits a batch this long after its first record arrived, so one
	// fsync amortizes over every record appended inside the window. Zero
	// or negative commits each batch without waiting.
	FsyncWindow time.Duration
	// SegmentBytes rotates the active segment once it crosses this size
	// (default 64 MiB).
	SegmentBytes int64
	// Telemetry, when non-nil, receives the wal_appends, wal_fsyncs and
	// wal_bytes counters.
	Telemetry *telemetry.Recorder
}

// Log is the write-ahead log. Construct with Open; Append from any
// number of goroutines; Close exactly once, after every producer has
// stopped.
type Log struct {
	opts Options

	// mu orders appends: it guards the LSN counter, the frame buffer,
	// the latched failure and the segment list.
	mu      sync.Mutex
	last    uint64     // the most recently assigned LSN
	buf     []byte     // frames of the records written+1 .. last
	err     error      // first write, fsync or rotation failure; latched
	work    *sync.Cond // on mu: buf went non-empty, or closing was set
	closing bool
	segs    []segInfo // on-disk segments, first-seq ascending, active last

	// commitMu serializes commits and guards the writer state below.
	commitMu sync.Mutex
	spare    []byte // the buffer the next commit swaps in
	f        *os.File
	segSize  int64
	written  uint64 // the highest LSN written to the active segment

	// durable is the highest LSN known to be on stable storage.
	durable atomic.Uint64

	fsyncHist instrument.Hist

	lastScanned uint64 // highest valid seq found by Open's scan

	stop chan struct{}
	done chan struct{}
}

type segInfo struct {
	path     string
	firstSeq uint64
}

// Open scans dir's segments, truncates a torn or corrupted tail to the
// last valid CRC frame (a crash mid-append must not fail boot), resumes
// LSN assignment after the highest surviving record, and starts the
// committer goroutine. Call Replay before the first Append to feed the
// surviving records into a store.
func Open(o Options) (*Log, error) {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 64 << 20
	}
	if o.Dir == "" {
		return nil, errors.New("wal: Options.Dir is required")
	}
	if err := os.MkdirAll(o.Dir, 0o755); err != nil {
		return nil, err
	}
	segs, err := listSegments(o.Dir)
	if err != nil {
		return nil, err
	}

	l := &Log{
		opts:  o,
		buf:   make([]byte, 0, bufCap),
		spare: make([]byte, 0, bufCap),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	l.work = sync.NewCond(&l.mu)

	// Walk the segments in order, verifying frame CRCs and sequence
	// continuity. The first invalid frame ends the valid prefix: the
	// file is truncated there and any later segments (past the torn
	// point, unreachable without a seq gap) are deleted.
	last := uint64(0)
	intactThrough := len(segs)
	for i, seg := range segs {
		segLast, validBytes, intact, err := scanSegment(seg.path, last)
		if err != nil {
			return nil, err
		}
		last = segLast
		if !intact {
			if err := os.Truncate(seg.path, validBytes); err != nil {
				return nil, fmt.Errorf("wal: truncating torn tail of %s: %w", seg.path, err)
			}
			intactThrough = i + 1
			break
		}
	}
	for _, seg := range segs[intactThrough:] {
		if err := os.Remove(seg.path); err != nil {
			return nil, err
		}
	}
	l.segs = segs[:intactThrough]
	l.lastScanned = last

	// Drop trailing segments that hold no valid record (firstSeq past the
	// surviving prefix): a boot that appended nothing leaves an empty
	// wal-<last+1>.seg behind, and openSegment below recreates that very
	// path. Keeping the stale entry would list the active segment twice in
	// l.segs, and Prune — seeing the duplicate as a covered predecessor —
	// would unlink the file the log is appending to, silently dropping
	// every subsequent acked write at the next restart.
	for len(l.segs) > 0 && l.segs[len(l.segs)-1].firstSeq > last {
		stale := l.segs[len(l.segs)-1]
		if err := os.Remove(stale.path); err != nil {
			return nil, err
		}
		l.segs = l.segs[:len(l.segs)-1]
	}

	// Resume after the surviving prefix: the next record gets LSN last+1.
	l.last, l.written = last, last
	l.durable.Store(last)

	// A fresh active segment, named by the next LSN: appending to a
	// just-truncated file would work, but a clean segment boundary per
	// boot keeps recovery evidence legible and rotation uniform.
	if err := l.openSegment(last + 1); err != nil {
		return nil, err
	}

	go l.run()
	return l, nil
}

// LastLSN returns the most recently assigned LSN (the recovery scan's
// highest surviving record before any Append). Snapshots stamp
// themselves with this value at scan start: every mutation logged after
// it is in the replay tail.
func (l *Log) LastLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.last
}

// Durable returns the highest LSN known to be on stable storage.
func (l *Log) Durable() uint64 { return l.durable.Load() }

// Dir returns the log directory.
func (l *Log) Dir() string { return l.opts.Dir }

// FsyncLatency returns the fsync-latency histogram (nanosecond values).
func (l *Log) FsyncLatency() instrument.HistSnapshot { return l.fsyncHist.Snapshot() }

// Append frames one mutation record into the log's buffer and returns
// its LSN. It is allocation-free and safe for any number of concurrent
// producers; val is copied before Append returns. An Append that finds
// the buffer full commits it first. After a latched failure the record
// is dropped (WaitDurable and Close report the failure).
func (l *Log) Append(op Op, key int64, val string) uint64 {
	if op != OpSet {
		val = ""
	}
	frame := frameHeader + recFixed + len(val)
	l.mu.Lock()
	for len(l.buf) > 0 && len(l.buf)+frame > cap(l.buf) && l.err == nil {
		full := l.last
		l.mu.Unlock()
		l.commit(full)
		l.mu.Lock()
	}
	l.last++
	lsn := l.last
	if l.err == nil {
		if len(l.buf) == 0 {
			l.work.Signal()
		}
		l.buf = appendFrame(l.buf, op, lsn, key, val)
	}
	l.mu.Unlock()
	if l.opts.Telemetry != nil {
		l.opts.Telemetry.AddCounter(instrument.CtrWALAppends, 1)
	}
	return lsn
}

// WaitDurable blocks until every record up to lsn, an LSN Append
// returned, is fsynced, or returns the log's latched failure. A caller
// that finds lsn not yet durable commits the buffer itself; callers
// queued behind that commit find their LSN covered. Sync-mode
// connections call it before flushing replies, so a client ack implies
// stable storage.
func (l *Log) WaitDurable(lsn uint64) error {
	if l.durable.Load() >= lsn {
		return nil
	}
	l.commit(lsn)
	if l.durable.Load() >= lsn {
		return nil
	}
	return l.Err()
}

// Err returns the log's latched failure, or nil.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// Close commits what is buffered, stops the committer and closes the
// active segment. Producers must have stopped appending; call after the
// serving layer has shut down.
func (l *Log) Close() error {
	l.mu.Lock()
	l.closing = true
	l.work.Signal()
	l.mu.Unlock()
	close(l.stop)
	<-l.done
	l.commit(math.MaxUint64)
	l.commitMu.Lock()
	if err := l.f.Close(); err != nil {
		l.fail(err)
	}
	l.commitMu.Unlock()
	return l.Err()
}

// run is the committer goroutine: wait for the buffer to go non-empty,
// let the group-commit window fill it, commit.
func (l *Log) run() {
	defer close(l.done)
	window := time.NewTimer(time.Hour)
	window.Stop()
	for {
		l.mu.Lock()
		for len(l.buf) == 0 && !l.closing {
			l.work.Wait()
		}
		l.mu.Unlock()
		window.Reset(l.opts.FsyncWindow)
		select {
		case <-window.C:
		case <-l.stop:
			return
		}
		l.commit(math.MaxUint64)
	}
}

// commit writes every buffered frame to the log and fsyncs it, unless
// every record through upto is durable by the time it holds commitMu:
// callers queued behind another commit find their records covered. The
// buffer is swapped for the spare under mu, so appends keep framing
// while the write and the fsync run. An empty buffer is a no-op, and
// after a latched failure the swapped-out frames are dropped.
func (l *Log) commit(upto uint64) {
	l.commitMu.Lock()
	defer l.commitMu.Unlock()
	if l.durable.Load() >= upto {
		return
	}
	l.mu.Lock()
	buf, last, failed := l.buf, l.last, l.err != nil
	l.buf, l.spare = l.spare[:0], buf
	l.mu.Unlock()
	if len(buf) == 0 || failed {
		return
	}
	if err := l.writeFrames(buf, last); err != nil {
		l.fail(err)
	}
}

// writeFrames appends buf's frames, the records written+1 .. last, to
// the active segment and fsyncs them. A frame that would push a
// non-empty segment past SegmentBytes goes to the next segment instead,
// so each segment is named by its first record's seq.
func (l *Log) writeFrames(buf []byte, last uint64) error {
	for {
		n, seq := len(buf), last
		if l.segSize+int64(n) > l.opts.SegmentBytes {
			n, seq = 0, l.written
			for n < len(buf) {
				frame := frameHeader + int(binary.LittleEndian.Uint32(buf[n:]))
				if l.segSize+int64(n+frame) > l.opts.SegmentBytes && l.segSize+int64(n) > 0 {
					break
				}
				n, seq = n+frame, seq+1
			}
		}
		if n > 0 {
			if _, err := l.f.Write(buf[:n]); err != nil {
				return err
			}
			l.segSize += int64(n)
			l.written = seq
			if l.opts.Telemetry != nil {
				l.opts.Telemetry.AddCounter(instrument.CtrWALBytes, uint64(n))
			}
			if err := l.fsync(); err != nil {
				return err
			}
		}
		if n == len(buf) {
			return nil
		}
		if err := l.rotate(seq + 1); err != nil {
			return err
		}
		buf = buf[n:]
	}
}

// appendFrame renders one record frame into buf.
func appendFrame(buf []byte, op Op, seq uint64, key int64, val string) []byte {
	if op != OpSet {
		val = ""
	}
	payload := recFixed + len(val)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(payload))
	crcAt := len(buf)
	buf = binary.LittleEndian.AppendUint32(buf, 0) // CRC placeholder
	buf = append(buf, byte(op))
	buf = binary.LittleEndian.AppendUint64(buf, seq)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(key))
	buf = append(buf, val...)
	crc := crc32.Checksum(buf[crcAt+4:], crcTable)
	binary.LittleEndian.PutUint32(buf[crcAt:], crc)
	return buf
}

// fsync pushes the written bytes to stable storage and advances the
// durable LSN to the last record written. Commits are serialized and
// written only grows, so durable never moves backwards.
func (l *Log) fsync() error {
	begin := telemetry.Nanotime()
	err := l.f.Sync()
	l.fsyncHist.Record(telemetry.Nanotime() - begin)
	if err != nil {
		return err
	}
	if l.opts.Telemetry != nil {
		l.opts.Telemetry.AddCounter(instrument.CtrWALFsyncs, 1)
	}
	l.durable.Store(l.written)
	return nil
}

// fail latches the log's first error: later appends are dropped, and
// WaitDurable reports it, so a sync-mode connection learns its ack
// cannot be honored.
func (l *Log) fail(err error) {
	l.mu.Lock()
	if l.err == nil {
		l.err = err
	}
	l.mu.Unlock()
}

// rotate closes the active segment and opens the next, named by the
// first LSN it will hold.
func (l *Log) rotate(firstSeq uint64) error {
	if err := l.f.Close(); err != nil {
		return err
	}
	return l.openSegment(firstSeq)
}

// openSegment creates the segment whose first record will carry
// firstSeq, fsyncing the directory so the file itself survives a crash.
func (l *Log) openSegment(firstSeq uint64) error {
	path := filepath.Join(l.opts.Dir, fmt.Sprintf("%s%016d%s", segPrefix, firstSeq, segSuffix))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if err := SyncDir(l.opts.Dir); err != nil {
		f.Close()
		return err
	}
	l.f = f
	l.segSize = 0
	l.mu.Lock()
	l.segs = append(l.segs, segInfo{path: path, firstSeq: firstSeq})
	l.mu.Unlock()
	return nil
}

// Replay feeds every surviving record with seq > afterSeq to fn in log
// order and returns how many were delivered. Call it after Open and
// before the first Append: it reads the scanned prefix from disk, so
// concurrent appends to the active segment would race the read. The
// val slice is only valid during the callback.
func (l *Log) Replay(afterSeq uint64, fn func(op Op, seq uint64, key int64, val []byte) error) (int, error) {
	l.mu.Lock()
	segs := append([]segInfo(nil), l.segs...)
	l.mu.Unlock()
	n := 0
	for _, seg := range segs {
		replayed, err := replaySegment(seg.path, afterSeq, l.lastScanned, fn)
		n += replayed
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// Prune removes segments whose every record is already covered by a
// snapshot at uptoSeq. The active segment is never removed.
func (l *Log) Prune(uptoSeq uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	kept := l.segs[:0]
	for i, seg := range l.segs {
		// A segment is disposable when a successor exists and that
		// successor starts at or below uptoSeq+1 — i.e. every record in
		// this segment has seq <= uptoSeq.
		if i+1 < len(l.segs) && l.segs[i+1].firstSeq <= uptoSeq+1 {
			if err := os.Remove(seg.path); err != nil {
				// Keep the tail consistent even on a failed remove.
				kept = append(kept, l.segs[i:]...)
				l.segs = kept
				return err
			}
			continue
		}
		kept = append(kept, seg)
	}
	l.segs = kept
	return nil
}

// SyncDir fsyncs a directory so a just-created or just-renamed entry
// survives a crash. Shared with the snapshot writer.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// listSegments returns dir's segments sorted by first sequence.
func listSegments(dir string) ([]segInfo, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []segInfo
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		seq, err := strconv.ParseUint(name[len(segPrefix):len(name)-len(segSuffix)], 10, 64)
		if err != nil {
			continue // not ours
		}
		segs = append(segs, segInfo{path: filepath.Join(dir, name), firstSeq: seq})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].firstSeq < segs[j].firstSeq })
	return segs, nil
}

// scanSegment walks one segment verifying frame structure, CRCs and
// sequence continuity against prev (the last valid seq before this
// segment; 0 adopts the first record's seq). It returns the last valid
// seq, the byte offset of the valid prefix, and whether the whole file
// was intact.
func scanSegment(path string, prev uint64) (last uint64, validBytes int64, intact bool, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, false, err
	}
	last = prev
	off := 0
	for {
		if off == len(data) {
			return last, int64(off), true, nil
		}
		rec, seq, ok := parseFrame(data[off:])
		if !ok || (last != 0 && seq != last+1) {
			return last, int64(off), false, nil
		}
		last = seq
		off += rec
	}
}

// parseFrame validates one frame at the head of data, returning its
// total length and the record's seq.
func parseFrame(data []byte) (frameLen int, seq uint64, ok bool) {
	if len(data) < frameHeader {
		return 0, 0, false
	}
	payload := int(binary.LittleEndian.Uint32(data))
	if payload < recFixed || payload > maxFrameLoad || len(data) < frameHeader+payload {
		return 0, 0, false
	}
	crc := binary.LittleEndian.Uint32(data[4:])
	body := data[frameHeader : frameHeader+payload]
	if crc32.Checksum(body, crcTable) != crc {
		return 0, 0, false
	}
	op := Op(body[0])
	if op != OpSet && op != OpDel {
		return 0, 0, false
	}
	return frameHeader + payload, binary.LittleEndian.Uint64(body[1:]), true
}

// replaySegment delivers the segment's records with afterSeq < seq <=
// lastValid to fn.
func replaySegment(path string, afterSeq, lastValid uint64, fn func(op Op, seq uint64, key int64, val []byte) error) (int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if errors.Is(err, io.EOF) {
			return 0, nil
		}
		return 0, err
	}
	n := 0
	off := 0
	for off < len(data) {
		rec, seq, ok := parseFrame(data[off:])
		if !ok || seq > lastValid {
			break // past the valid prefix Open established
		}
		body := data[off+frameHeader : off+rec]
		off += rec
		if seq <= afterSeq {
			continue
		}
		op := Op(body[0])
		key := int64(binary.LittleEndian.Uint64(body[9:]))
		if err := fn(op, seq, key, body[recFixed:]); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}
