// Package wal is the append-only operation log behind lflserver's
// durability modes: an off-hot-path write-ahead log fed by a lock-free
// MPSC hand-off ring from the serving goroutines to a single fsync'ing
// writer goroutine.
//
// The design keeps the store's zero-allocation CAS paths untouched
// (DESIGN.md Section 2.1): publishing a record is one fetch-and-add
// ticket claim plus one slot write — no lock, no allocation, no
// syscall: a ticket cursor claims a slot, and a per-slot sequence number
// hands it between producer and consumer (see Append and drain). It is
// the repo's only MPSC hand-off ring.
// All file I/O, CRC framing, group-commit fsync batching and segment
// rotation happen on the writer goroutine, so the serving layer pays
// for durability only what the hand-off costs.
//
// On-disk format: segments named wal-%016d.seg by the sequence number
// of their first record, each a stream of frames
//
//	[4B little-endian payload length][4B CRC32-C of payload][payload]
//	payload = [1B op][8B seq][8B key][value bytes (OpSet only)]
//
// Sequence numbers (LSNs) are assigned by the ring ticket, start at 1,
// and are strictly continuous across segments, so recovery can verify
// the log's integrity record by record. A torn or corrupted frame —
// a crash mid-append, a bit flip — truncates the log to the last valid
// prefix instead of failing boot; see Open.
//
// Ordering contract: records are appended in each connection's reply
// order, so per-connection per-key program order is exactly the log
// order. Mutations of one key racing across connections may be logged
// in either order — the same weak-consistency trade the paper's
// iteration semantics make, documented in DESIGN.md Section 13.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"runtime"
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
)

// crcTable is CRC32-C (Castagnoli): hardware-accelerated on amd64/arm64,
// so framing costs stay off the writer's profile.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Options configures Open. The zero value of every field gets a usable
// default except Dir, which is required.
type Options struct {
	// Dir is the directory holding segments (and snapshots, by
	// convention). Created if absent.
	Dir string
	// FsyncWindow is the group-commit window: the writer holds dirty
	// bytes at most this long before fsync, so one fsync amortizes over
	// every record that arrived inside the window. Zero or negative
	// fsyncs after every writer drain (tightest durability, one fsync
	// per hand-off batch).
	FsyncWindow time.Duration
	// SegmentBytes rotates the active segment once it crosses this size
	// (default 64 MiB).
	SegmentBytes int64
	// RingSize is the hand-off ring capacity, rounded up to a power of
	// two (default 1024). A full ring applies bounded backpressure: the
	// publishing goroutine yields until the writer frees a slot.
	RingSize int
	// Telemetry, when non-nil, receives the wal_appends, wal_fsyncs and
	// wal_bytes counters.
	Telemetry *telemetry.Recorder
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 64 << 20
	}
	if o.RingSize <= 0 {
		o.RingSize = 1024
	}
	rs := 1
	for rs < o.RingSize {
		rs <<= 1
	}
	o.RingSize = rs
	return o
}

// slot is one hand-off ring cell: the per-slot sequence of the ticket
// discipline plus the record it carries, inline so publishing allocates
// nothing.
type slot struct {
	seq atomic.Uint64
	op  Op
	key int64
	val string
}

// Log is the write-ahead log. Construct with Open; Append from any
// number of goroutines; Close exactly once, after every producer has
// stopped.
type Log struct {
	opts        Options
	windowNanos int64

	// MPSC hand-off ring. Producers claim a ticket with enq and spin
	// (bounded backpressure) while their slot still holds an unconsumed
	// record from one lap ago; the writer owns deq outright.
	mask  uint64
	slots []slot
	enq   atomic.Uint64
	deq   uint64

	// Dekker-style park handshake: the writer sets sleeping before its
	// final emptiness check, producers check it after their final seq
	// store. Go atomics are sequentially consistent, so one side always
	// sees the other.
	sleeping atomic.Bool
	wake     chan struct{}

	// durable is the highest LSN known to be on stable storage.
	durable     atomic.Uint64
	syncWaiters atomic.Int32

	mu   sync.Mutex
	cond *sync.Cond
	err  error // first writer failure; latched

	fsyncHist instrument.Hist

	// writer-goroutine state.
	f           *os.File
	segSize     int64
	buf         []byte
	unsynced    bool
	firstDirty  int64 // Nanotime of the oldest unsynced write
	lastWritten uint64

	// segs is the on-disk segment list (first-seq ascending, the active
	// segment last), guarded by mu: the writer appends on rotation,
	// Prune removes from the front.
	segs []segInfo

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
// writer goroutine. Call Replay before the first Append to feed the
// surviving records into a store.
func Open(o Options) (*Log, error) {
	o = o.withDefaults()
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
		opts:        o,
		windowNanos: o.FsyncWindow.Nanoseconds(),
		mask:        uint64(o.RingSize - 1),
		slots:       make([]slot, o.RingSize),
		wake:        make(chan struct{}, 1),
		stop:        make(chan struct{}),
		done:        make(chan struct{}),
	}
	l.cond = sync.NewCond(&l.mu)

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
	// would unlink the file the writer is appending to, silently dropping
	// every subsequent acked write at the next restart.
	for len(l.segs) > 0 && l.segs[len(l.segs)-1].firstSeq > last {
		stale := l.segs[len(l.segs)-1]
		if err := os.Remove(stale.path); err != nil {
			return nil, err
		}
		l.segs = l.segs[:len(l.segs)-1]
	}

	// Resume tickets after the surviving prefix: the next record gets
	// LSN last+1 (ticket t carries LSN t+1). Slot sequences are seeded
	// so slot (t & mask) admits exactly ticket t on the first lap.
	l.enq.Store(last)
	l.deq = last
	l.durable.Store(last)
	for i := 0; i < o.RingSize; i++ {
		t := last + uint64(i)
		l.slots[t&l.mask].seq.Store(t)
	}

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
func (l *Log) LastLSN() uint64 { return l.enq.Load() }

// Durable returns the highest LSN known to be on stable storage.
func (l *Log) Durable() uint64 { return l.durable.Load() }

// Dir returns the log directory.
func (l *Log) Dir() string { return l.opts.Dir }

// FsyncLatency returns the fsync-latency histogram (nanosecond values).
func (l *Log) FsyncLatency() instrument.HistSnapshot { return l.fsyncHist.Snapshot() }

// Append publishes one mutation record and returns its LSN. It is
// lock-free, allocation-free, and safe for any number of concurrent
// producers; a full ring yields until the writer frees a slot (bounded
// backpressure). val must be immutable
// for the life of the call's hand-off (Go strings are).
func (l *Log) Append(op Op, key int64, val string) uint64 {
	t := l.enq.Add(1) - 1
	s := &l.slots[t&l.mask]
	for s.seq.Load() != t {
		runtime.Gosched()
	}
	s.op, s.key, s.val = op, key, val
	s.seq.Store(t + 1)
	if l.sleeping.Load() {
		select {
		case l.wake <- struct{}{}:
		default:
		}
	}
	if l.opts.Telemetry != nil {
		l.opts.Telemetry.AddCounter(instrument.CtrWALAppends, 1)
	}
	return t + 1
}

// WaitDurable blocks until every record up to lsn is fsynced, or
// returns the writer's latched failure. Sync-mode connections call it
// before flushing replies, so a client ack implies stable storage.
func (l *Log) WaitDurable(lsn uint64) error {
	if l.durable.Load() >= lsn {
		return nil
	}
	l.syncWaiters.Add(1)
	defer l.syncWaiters.Add(-1)
	// Wake a parked writer so the fsync happens now, not at window end.
	if l.sleeping.Load() {
		select {
		case l.wake <- struct{}{}:
		default:
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.durable.Load() < lsn && l.err == nil {
		l.cond.Wait()
	}
	return l.err
}

// Err returns the writer's latched failure, or nil.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// Close drains the ring, fsyncs, and stops the writer. Producers must
// have stopped appending; call after the serving layer has shut down.
func (l *Log) Close() error {
	close(l.stop)
	<-l.done
	return l.Err()
}

// ringNonEmpty reports whether a record is ready to pop. Writer only.
func (l *Log) ringNonEmpty() bool {
	return l.slots[l.deq&l.mask].seq.Load() == l.deq+1
}

// run is the writer goroutine: drain the ring into frames, write,
// group-commit fsync, park.
func (l *Log) run() {
	defer close(l.done)
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	for {
		l.drain()
		if l.unsynced && l.fsyncDue() {
			l.fsync()
		}
		if l.ringNonEmpty() {
			continue
		}
		select {
		case <-l.stop:
			l.drain()
			if l.unsynced {
				l.fsync()
			}
			l.mu.Lock()
			if l.f != nil {
				if err := l.f.Close(); err != nil && l.err == nil {
					l.err = err
				}
				l.f = nil
			}
			l.mu.Unlock()
			return
		default:
		}
		l.park(timer)
	}
}

// fsyncDue reports whether the dirty bytes should be synced now: the
// group-commit window elapsed, a WaitDurable caller is parked on them,
// or the window is zero (sync every drain).
func (l *Log) fsyncDue() bool {
	if l.windowNanos <= 0 || l.syncWaiters.Load() > 0 {
		return true
	}
	return telemetry.Nanotime()-l.firstDirty >= l.windowNanos
}

// park waits for work: a bounded yield-spin, then the sleeping/wake
// handshake. With dirty bytes pending it sleeps at most the remainder
// of the fsync window so group commit never stalls past its bound.
func (l *Log) park(timer *time.Timer) {
	for i := 0; i < 64; i++ {
		if l.ringNonEmpty() {
			return
		}
		select {
		case <-l.stop:
			return
		default:
		}
		runtime.Gosched()
	}
	for {
		l.sleeping.Store(true)
		if l.ringNonEmpty() {
			l.sleeping.Store(false)
			return
		}
		// The sync-waiter half of the handshake: WaitDurable increments
		// syncWaiters before loading sleeping, the writer stores sleeping
		// before loading syncWaiters, so a waiter that missed the flag and
		// sent no wake token is still seen here — otherwise it would sleep
		// out the whole group-commit window.
		if l.unsynced && l.syncWaiters.Load() > 0 {
			l.sleeping.Store(false)
			return
		}
		var deadline <-chan time.Time
		if l.unsynced {
			rest := l.windowNanos - (telemetry.Nanotime() - l.firstDirty)
			if rest < 0 {
				rest = 0
			}
			timer.Reset(time.Duration(rest))
			deadline = timer.C
		}
		select {
		case <-l.wake:
			l.sleeping.Store(false)
			stopTimer(timer, deadline)
			if l.ringNonEmpty() || l.syncWaiters.Load() > 0 {
				return
			}
			// Stale token from a publish the spin phase already consumed.
		case <-deadline:
			l.sleeping.Store(false)
			return
		case <-l.stop:
			l.sleeping.Store(false)
			stopTimer(timer, deadline)
			return
		}
	}
}

func stopTimer(t *time.Timer, armed <-chan time.Time) {
	if armed == nil {
		return
	}
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
}

// drain pops every ready record, frames it into the write buffer, and
// writes the batch out (rotating segments as needed). After a latched
// failure records are still consumed — and dropped — so producers can
// never wedge on a full ring behind a dead disk.
func (l *Log) drain() {
	buf := l.buf[:0]
	var pending uint64 // seq of the last record framed into buf
	for {
		s := &l.slots[l.deq&l.mask]
		if s.seq.Load() != l.deq+1 {
			break
		}
		op, key, val := s.op, s.key, s.val
		s.val = "" // don't pin arena chunks in a parked slot
		seq := l.deq + 1
		s.seq.Store(l.deq + uint64(len(l.slots)))
		l.deq++
		if l.Err() != nil {
			continue // latched failure: consume and drop
		}
		fl := frameHeader + recFixed
		if op == OpSet {
			fl += len(val)
		}
		// Rotate before this frame would push the segment past its cap,
		// so each segment's name is exactly its first record's seq.
		if l.segSize+int64(len(buf))+int64(fl) > l.opts.SegmentBytes &&
			l.segSize+int64(len(buf)) > 0 {
			l.writeBatch(buf, pending)
			buf = buf[:0]
			if l.Err() == nil {
				if l.unsynced {
					l.fsync()
				}
				if err := l.rotate(seq); err != nil {
					l.fail(err)
				}
			}
			if l.Err() != nil {
				continue
			}
		}
		buf = appendFrame(buf, op, seq, key, val)
		pending = seq
	}
	if len(buf) > 0 && l.Err() == nil {
		l.writeBatch(buf, pending)
	}
	l.buf = buf
}

// writeBatch appends framed bytes to the active segment and marks them
// dirty; lastSeq is the seq of the final record in the batch. An empty
// batch is a no-op: rotation can trigger on the first record of a drain
// (segment filled by the previous one), and marking that phantom batch
// dirty would regress lastWritten below already-fsynced records.
func (l *Log) writeBatch(buf []byte, lastSeq uint64) {
	if len(buf) == 0 {
		return
	}
	if _, err := l.f.Write(buf); err != nil {
		l.fail(err)
		return
	}
	l.segSize += int64(len(buf))
	if !l.unsynced {
		l.unsynced = true
		l.firstDirty = telemetry.Nanotime()
	}
	l.lastWritten = lastSeq
	if l.opts.Telemetry != nil {
		l.opts.Telemetry.AddCounter(instrument.CtrWALBytes, uint64(len(buf)))
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

// fsync pushes the dirty bytes to stable storage, advances the durable
// LSN, and wakes every WaitDurable caller it satisfied.
func (l *Log) fsync() {
	begin := telemetry.Nanotime()
	err := l.f.Sync()
	l.fsyncHist.Record(telemetry.Nanotime() - begin)
	l.unsynced = false
	if err != nil {
		l.fail(err)
		return
	}
	if l.opts.Telemetry != nil {
		l.opts.Telemetry.AddCounter(instrument.CtrWALFsyncs, 1)
	}
	// Monotonic: never publish a durable LSN below one already announced
	// (lastWritten can be stale across a rotation's pre-rotate fsync).
	if l.lastWritten > l.durable.Load() {
		l.durable.Store(l.lastWritten)
	}
	l.mu.Lock()
	l.cond.Broadcast()
	l.mu.Unlock()
}

// fail latches the writer's first error and releases every waiter: a
// sync-mode connection must learn its ack cannot be honored.
func (l *Log) fail(err error) {
	l.mu.Lock()
	if l.err == nil {
		l.err = err
	}
	l.cond.Broadcast()
	l.mu.Unlock()
	l.unsynced = false
}

// rotate closes the active segment and opens the next, named by the
// first LSN it will hold.
func (l *Log) rotate(firstSeq uint64) error {
	if err := l.f.Close(); err != nil {
		return err
	}
	l.f = nil
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
