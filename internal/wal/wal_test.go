package wal

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"
)

// rec is one replayed record, captured for assertions.
type rec struct {
	op  Op
	seq uint64
	key int64
	val string
}

func collect(t *testing.T, l *Log, afterSeq uint64) []rec {
	t.Helper()
	var out []rec
	n, err := l.Replay(afterSeq, func(op Op, seq uint64, key int64, val []byte) error {
		out = append(out, rec{op: op, seq: seq, key: key, val: string(val)})
		return nil
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if n != len(out) {
		t.Fatalf("Replay reported %d records, delivered %d", n, len(out))
	}
	return out
}

func openT(t *testing.T, dir string, opts Options) *Log {
	t.Helper()
	opts.Dir = dir
	l, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l
}

func closeT(t *testing.T, l *Log) {
	t.Helper()
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestAppendCloseReopenReplay is the round trip: records written before
// a clean shutdown survive a reopen bit for bit, in order, seq-continuous.
func TestAppendCloseReopenReplay(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{})
	want := []rec{
		{OpSet, 1, 7, "alpha"},
		{OpDel, 2, 7, ""},
		{OpSet, 3, -12, "beta"},
		{OpSet, 4, 1 << 40, ""},
	}
	for _, r := range want {
		if lsn := l.Append(r.op, r.key, r.val); lsn != r.seq {
			t.Fatalf("Append returned LSN %d, want %d", lsn, r.seq)
		}
	}
	if err := l.WaitDurable(4); err != nil {
		t.Fatalf("WaitDurable: %v", err)
	}
	closeT(t, l)

	l2 := openT(t, dir, Options{})
	defer closeT(t, l2)
	if got := l2.LastLSN(); got != 4 {
		t.Fatalf("recovered LastLSN = %d, want 4", got)
	}
	got := collect(t, l2, 0)
	for i, w := range want {
		// OpDel's value is not persisted; an empty OpSet value round-trips
		// as empty too, so the expectation is the record as framed.
		if i >= len(got) || got[i] != w {
			t.Fatalf("record %d = %+v, want %+v (all: %+v)", i, got[i], w, got)
		}
	}
	// Replay's afterSeq filter: seq > 2 only.
	tail := collect(t, l2, 2)
	if len(tail) != 2 || tail[0].seq != 3 || tail[1].seq != 4 {
		t.Fatalf("Replay(2) = %+v, want seqs 3,4", tail)
	}
	// New appends continue the sequence.
	if lsn := l2.Append(OpSet, 99, "gamma"); lsn != 5 {
		t.Fatalf("post-recovery Append LSN = %d, want 5", lsn)
	}
	if err := l2.WaitDurable(5); err != nil {
		t.Fatalf("WaitDurable: %v", err)
	}
}

// TestTornTailTruncated simulates a crash mid-append: the final frame is
// cut short at every possible byte boundary, and recovery must keep the
// intact prefix and drop only the torn record.
func TestTornTailTruncated(t *testing.T) {
	for _, cut := range []int{1, 4, 8, 12, 20} {
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			dir := t.TempDir()
			l := openT(t, dir, Options{})
			l.Append(OpSet, 1, "one")
			l.Append(OpSet, 2, "two")
			l.Append(OpSet, 3, "three")
			if err := l.WaitDurable(3); err != nil {
				t.Fatal(err)
			}
			closeT(t, l)

			seg := onlySegment(t, dir)
			data, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			// Frame 3 is the last; cut it `cut` bytes short.
			lastLen := frameHeader + recFixed + len("three")
			if cut > lastLen {
				t.Fatalf("cut %d exceeds final frame %d", cut, lastLen)
			}
			if err := os.WriteFile(seg, data[:len(data)-cut], 0o644); err != nil {
				t.Fatal(err)
			}

			l2 := openT(t, dir, Options{})
			defer closeT(t, l2)
			if got := l2.LastLSN(); got != 2 {
				t.Fatalf("LastLSN after torn tail = %d, want 2", got)
			}
			recs := collect(t, l2, 0)
			if len(recs) != 2 || recs[1].val != "two" {
				t.Fatalf("survivors = %+v, want records 1,2", recs)
			}
			// The log keeps working: LSNs resume after the surviving prefix.
			if lsn := l2.Append(OpSet, 4, "four"); lsn != 3 {
				t.Fatalf("post-truncation Append LSN = %d, want 3", lsn)
			}
			if err := l2.WaitDurable(3); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestBitFlipTruncatesFromCorruption flips one payload byte mid-log: the
// CRC catches it, and recovery truncates from the damaged record on,
// keeping the prefix.
func TestBitFlipTruncatesFromCorruption(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{})
	for i := 1; i <= 5; i++ {
		l.Append(OpSet, int64(i), "payload")
	}
	if err := l.WaitDurable(5); err != nil {
		t.Fatal(err)
	}
	closeT(t, l)

	seg := onlySegment(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	frame := frameHeader + recFixed + len("payload")
	// Flip a value byte inside record 3.
	data[2*frame+frameHeader+recFixed] ^= 0x40
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	l2 := openT(t, dir, Options{})
	defer closeT(t, l2)
	recs := collect(t, l2, 0)
	if len(recs) != 2 {
		t.Fatalf("survivors after bit flip = %+v, want records 1,2", recs)
	}
	if fi, err := os.Stat(seg); err != nil || fi.Size() != int64(2*frame) {
		t.Fatalf("segment not truncated to valid prefix: size=%d want %d (err=%v)", fi.Size(), 2*frame, err)
	}
}

// TestSegmentRotationAndPrune drives enough records through a tiny
// segment cap to rotate several times, then prunes below a pretend
// snapshot LSN and confirms replay of the tail still works after reopen.
func TestSegmentRotationAndPrune(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{SegmentBytes: 256})
	const n = 64
	for i := 1; i <= n; i++ {
		l.Append(OpSet, int64(i), "0123456789abcdef")
	}
	if err := l.WaitDurable(n); err != nil {
		t.Fatal(err)
	}
	segsBefore := segmentCount(t, dir)
	if segsBefore < 3 {
		t.Fatalf("expected >=3 segments at 256B cap, got %d", segsBefore)
	}
	checkSegmentNames(t, dir)
	const snapLSN = 40
	if err := l.Prune(snapLSN); err != nil {
		t.Fatalf("Prune: %v", err)
	}
	if after := segmentCount(t, dir); after >= segsBefore {
		t.Fatalf("Prune removed nothing: %d -> %d segments", segsBefore, after)
	}
	closeT(t, l)

	l2 := openT(t, dir, Options{SegmentBytes: 256})
	defer closeT(t, l2)
	if got := l2.LastLSN(); got != n {
		t.Fatalf("LastLSN after prune+reopen = %d, want %d", got, n)
	}
	tail := collect(t, l2, snapLSN)
	if len(tail) != n-snapLSN {
		t.Fatalf("tail after Prune(%d) has %d records, want %d", snapLSN, len(tail), n-snapLSN)
	}
	for i, r := range tail {
		if r.seq != uint64(snapLSN+1+i) {
			t.Fatalf("tail[%d].seq = %d, want %d", i, r.seq, snapLSN+1+i)
		}
	}
}

// TestReopenWithoutWritesKeepsActiveSegmentUnique is the duplicate-
// segment regression: a boot that appends nothing leaves an empty
// wal-<last+1>.seg; the next Open must reuse that path without listing
// it twice in segs, or Prune mistakes the live active segment for a
// covered predecessor and unlinks it while the writer appends — every
// later acked write would silently vanish at the next restart.
func TestReopenWithoutWritesKeepsActiveSegmentUnique(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{})
	for i := 1; i <= 3; i++ {
		l.Append(OpSet, int64(i), "v")
	}
	if err := l.WaitDurable(3); err != nil {
		t.Fatal(err)
	}
	closeT(t, l)

	// The no-write boot: creates (and leaves) an empty wal-…4.seg.
	closeT(t, openT(t, dir, Options{}))

	l3 := openT(t, dir, Options{})
	l3.mu.Lock()
	paths := make(map[string]bool, len(l3.segs))
	for _, s := range l3.segs {
		if paths[s.path] {
			l3.mu.Unlock()
			t.Fatalf("segment %s listed twice after reopen", s.path)
		}
		paths[s.path] = true
	}
	l3.mu.Unlock()

	if lsn := l3.Append(OpSet, 4, "four"); lsn != 4 {
		t.Fatalf("Append LSN = %d, want 4", lsn)
	}
	if err := l3.WaitDurable(4); err != nil {
		t.Fatal(err)
	}
	// Prune below a pretend snapshot at LSN 4: the active segment holding
	// record 4 must survive even though its records are all <= 4.
	if err := l3.Prune(4); err != nil {
		t.Fatalf("Prune: %v", err)
	}
	if lsn := l3.Append(OpSet, 5, "five"); lsn != 5 {
		t.Fatalf("Append LSN = %d, want 5", lsn)
	}
	if err := l3.WaitDurable(5); err != nil {
		t.Fatal(err)
	}
	closeT(t, l3)

	l4 := openT(t, dir, Options{})
	defer closeT(t, l4)
	if got := l4.LastLSN(); got != 5 {
		t.Fatalf("LastLSN after reopen = %d, want 5 (acked writes lost)", got)
	}
	recs := collect(t, l4, 0)
	if len(recs) != 2 || recs[0].seq != 4 || recs[1].seq != 5 {
		t.Fatalf("post-prune survivors = %+v, want seqs 4,5", recs)
	}
}

// TestCommitEmptyIsNoop: a commit that finds the buffer empty (the
// committer waking after a WaitDurable leader already took its batch)
// writes nothing, fsyncs nothing and leaves the durable LSN alone.
func TestCommitEmptyIsNoop(t *testing.T) {
	l := openT(t, t.TempDir(), Options{FsyncWindow: 10 * time.Second})
	defer closeT(t, l)
	lsn := l.Append(OpSet, 7, "v")
	if err := l.WaitDurable(lsn); err != nil {
		t.Fatal(err)
	}
	segSize := func() int64 {
		l.commitMu.Lock()
		defer l.commitMu.Unlock()
		return l.segSize
	}
	size, fsyncs := segSize(), l.FsyncLatency().Count
	l.commit(math.MaxUint64)
	if got := segSize(); got != size {
		t.Errorf("empty commit wrote %d bytes", got-size)
	}
	if got := l.FsyncLatency().Count; got != fsyncs {
		t.Errorf("empty commit fsynced: %d fsyncs, want %d", got, fsyncs)
	}
	if got := l.Durable(); got != lsn {
		t.Fatalf("Durable() = %d after an empty commit, want %d", got, lsn)
	}
	if err := l.Err(); err != nil {
		t.Fatalf("empty commit failed: %v", err)
	}
}

// TestFsyncDurableMonotonic: the durable LSN never moves backwards and
// never passes the last assigned LSN, while appenders, WaitDurable
// leaders, inline full-buffer commits, the committer goroutine and
// segment rotation all advance it at once.
func TestFsyncDurableMonotonic(t *testing.T) {
	l := openT(t, t.TempDir(), Options{SegmentBytes: 64 << 10})
	defer closeT(t, l)
	stop := make(chan struct{})
	sampled := make(chan error, 1)
	go func() {
		var prev uint64
		for {
			select {
			case <-stop:
				sampled <- nil
				return
			default:
			}
			d := l.Durable()
			if d < prev {
				sampled <- fmt.Errorf("Durable() regressed from %d to %d", prev, d)
				return
			}
			if last := l.LastLSN(); d > last {
				sampled <- fmt.Errorf("Durable() = %d past LastLSN() = %d", d, last)
				return
			}
			prev = d
		}
	}()
	big := string(make([]byte, 8<<10))
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				lsn := l.Append(OpSet, int64(i), big)
				if i%16 == w {
					if err := l.WaitDurable(lsn); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	if err := <-sampled; err != nil {
		t.Fatal(err)
	}
}

// TestDurableNeverRegressesAcrossRotation drives rotation on the first
// record of each commit (segment cap = one frame) and asserts the
// externally visible durable LSN only ever moves forward.
func TestDurableNeverRegressesAcrossRotation(t *testing.T) {
	dir := t.TempDir()
	val := "0123456789abcdef"
	frame := frameHeader + recFixed + len(val)
	l := openT(t, dir, Options{SegmentBytes: int64(frame), FsyncWindow: 10 * time.Second})
	defer closeT(t, l)
	for i := 1; i <= 8; i++ {
		l.Append(OpSet, int64(i), val)
		if d := l.Durable(); d < uint64(i-1) {
			t.Fatalf("Durable() = %d after append %d, regressed below %d", d, i, i-1)
		}
		if err := l.WaitDurable(uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestConcurrentAppendDurability is the group-commit contract under the
// race detector: 8 appenders and 4 WaitDurable callers run at once,
// values large enough that appends fill the buffer and commit it
// inline, a segment cap small enough to rotate mid-run. Every record
// gets a unique LSN, the buffers never grow past their preallocated
// capacity, and every record survives a reopen, seq-continuous, under
// the key and value it was appended with.
func TestConcurrentAppendDurability(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{FsyncWindow: time.Millisecond, SegmentBytes: 128 << 10})
	const workers, per = 8, 200
	// valLen gives every fourth record a 12 KiB value: 8 appenders fill
	// the 256 KiB buffer within a few rounds of each other.
	valLen := func(key int64) int {
		if key%4 == 0 {
			return 12 << 10
		}
		return int(key % 64)
	}
	vals := string(make([]byte, 12<<10))
	var wg sync.WaitGroup
	lsns := make([][]uint64, workers)
	done := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				key := int64(w*per + i)
				op := OpSet
				if i%3 == 0 {
					op = OpDel
				}
				lsns[w] = append(lsns[w], l.Append(op, key, vals[:valLen(key)]))
			}
		}(w)
	}
	var waiters sync.WaitGroup
	for w := 0; w < 4; w++ {
		waiters.Add(1)
		go func() {
			defer waiters.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if err := l.WaitDurable(l.LastLSN()); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(done)
	waiters.Wait()
	total := uint64(workers * per)
	if err := l.WaitDurable(total); err != nil {
		t.Fatal(err)
	}
	keyOf := make(map[uint64]int64, total)
	for w, ws := range lsns {
		for i, lsn := range ws {
			if _, dup := keyOf[lsn]; lsn == 0 || lsn > total || dup {
				t.Fatalf("bad or duplicate LSN %d", lsn)
			}
			keyOf[lsn] = int64(w*per + i)
		}
	}
	l.commitMu.Lock()
	l.mu.Lock()
	if cap(l.buf) != bufCap || cap(l.spare) != bufCap {
		t.Errorf("buffers grew to %d and %d bytes, want %d", cap(l.buf), cap(l.spare), bufCap)
	}
	l.mu.Unlock()
	l.commitMu.Unlock()
	closeT(t, l)
	if n := segmentCount(t, dir); n < 3 {
		t.Fatalf("expected rotation mid-run, found %d segments", n)
	}
	checkSegmentNames(t, dir)

	l2 := openT(t, dir, Options{})
	defer closeT(t, l2)
	recs := collect(t, l2, 0)
	if uint64(len(recs)) != total {
		t.Fatalf("recovered %d records, want %d", len(recs), total)
	}
	for i, r := range recs {
		if r.seq != uint64(i+1) {
			t.Fatalf("recovered seq gap at %d: %d", i, r.seq)
		}
		if r.key != keyOf[r.seq] {
			t.Fatalf("record %d: key %d, appended as %d", r.seq, r.key, keyOf[r.seq])
		}
		if want := valLen(r.key); r.op == OpSet && len(r.val) != want {
			t.Fatalf("record %d: value of %d bytes, appended %d", r.seq, len(r.val), want)
		}
	}
}

// TestWaitDurableUnblocksPromptly: a sync waiter must not wait out the
// whole group-commit window — it commits as the leader.
func TestWaitDurableUnblocksPromptly(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{FsyncWindow: 10 * time.Second})
	defer closeT(t, l)
	lsn := l.Append(OpSet, 1, "v")
	done := make(chan error, 1)
	go func() { done <- l.WaitDurable(lsn) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("WaitDurable: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WaitDurable did not return; sync waiter failed to force the fsync")
	}
	if l.Durable() < lsn {
		t.Fatalf("Durable() = %d after WaitDurable(%d)", l.Durable(), lsn)
	}
}

// TestWaitDurableReportsLatchedFailure pulls the active segment out
// from under an open log. The next commit's write fails: WaitDurable
// returns that error at once, later appends neither block nor buffer
// their frames, and Close reports the same error.
func TestWaitDurableReportsLatchedFailure(t *testing.T) {
	l := openT(t, t.TempDir(), Options{FsyncWindow: 10 * time.Second})
	first := l.Append(OpSet, 1, "one")
	if err := l.WaitDurable(first); err != nil {
		t.Fatal(err)
	}
	l.commitMu.Lock()
	l.f.Close()
	l.commitMu.Unlock()

	lsn := l.Append(OpSet, 2, "two")
	waited := make(chan error, 1)
	go func() { waited <- l.WaitDurable(lsn) }()
	select {
	case err := <-waited:
		if !errors.Is(err, os.ErrClosed) {
			t.Fatalf("WaitDurable(%d) = %v, want the write error", lsn, err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WaitDurable did not return the write error")
	}
	if err := l.WaitDurable(first); err != nil {
		t.Fatalf("WaitDurable(%d) = %v for a record durable before the failure", first, err)
	}

	// Twice a buffer's worth of frames: none is buffered, none commits.
	val := string(make([]byte, 4<<10))
	appended := make(chan uint64, 1)
	go func() {
		var last uint64
		for i := 0; i < 2*bufCap/len(val); i++ {
			last = l.Append(OpSet, int64(i), val)
		}
		appended <- last
	}()
	var last uint64
	select {
	case last = <-appended:
	case <-time.After(5 * time.Second):
		t.Fatal("Append blocked after the failure")
	}
	l.mu.Lock()
	buffered, capacity := len(l.buf), cap(l.buf)
	l.mu.Unlock()
	if buffered != 0 || capacity != bufCap {
		t.Fatalf("after the failure the buffer holds %d bytes (cap %d), want 0 (cap %d)", buffered, capacity, bufCap)
	}
	if err := l.WaitDurable(last); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("WaitDurable(%d) = %v, want the write error", last, err)
	}
	if err := l.Close(); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("Close = %v, want the write error", err)
	}
}

// TestPublishZeroAllocs pins the hot-path guarantee: Append allocates
// nothing, with the committer live and fsyncing underneath.
func TestPublishZeroAllocs(t *testing.T) {
	dir := t.TempDir()
	l := openT(t, dir, Options{FsyncWindow: time.Millisecond})
	defer closeT(t, l)
	val := "sixteen-byte-val"
	if allocs := testing.AllocsPerRun(2000, func() {
		l.Append(OpSet, 42, val)
	}); allocs != 0 {
		t.Fatalf("Append allocates %.2f allocs/op; the WAL publish path must be 0", allocs)
	}
}

// BenchmarkWALPublish is the benchdiff-gated append benchmark: the cost
// one serving goroutine pays to make a mutation durable-eligible.
func BenchmarkWALPublish(b *testing.B) {
	dir := b.TempDir()
	l, err := Open(Options{Dir: dir, FsyncWindow: time.Millisecond})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	val := "sixteen-byte-val"
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			l.Append(OpSet, 7, val)
		}
	})
}

func onlySegment(t *testing.T, dir string) string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, segPrefix+"*"+segSuffix))
	if err != nil {
		t.Fatal(err)
	}
	// Open creates a fresh (possibly empty) active segment per boot;
	// the one holding the test's records is the first.
	var withData []string
	for _, s := range segs {
		if fi, err := os.Stat(s); err == nil && fi.Size() > 0 {
			withData = append(withData, s)
		}
	}
	if len(withData) != 1 {
		t.Fatalf("expected exactly one non-empty segment, found %d of %d", len(withData), len(segs))
	}
	return withData[0]
}

// checkSegmentNames asserts that every non-empty segment in dir is
// named by the seq of its first record, which is what Prune relies on.
func checkSegmentNames(t *testing.T, dir string) {
	t.Helper()
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, seg := range segs {
		data, err := os.ReadFile(seg.path)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) == 0 {
			continue
		}
		if _, seq, ok := parseFrame(data); !ok || seq != seg.firstSeq {
			t.Fatalf("segment %s starts with record %d (valid frame: %v)", filepath.Base(seg.path), seq, ok)
		}
	}
}

func segmentCount(t *testing.T, dir string) int {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, segPrefix+"*"+segSuffix))
	if err != nil {
		t.Fatal(err)
	}
	return len(segs)
}

// TestFrameRoundTrip pins the frame encoding against hand-decoded bytes.
func TestFrameRoundTrip(t *testing.T) {
	buf := appendFrame(nil, OpSet, 9, -3, "xy")
	if len(buf) != frameHeader+recFixed+2 {
		t.Fatalf("frame length %d", len(buf))
	}
	n, seq, ok := parseFrame(buf)
	if !ok || n != len(buf) || seq != 9 {
		t.Fatalf("parseFrame = (%d, %d, %v)", n, seq, ok)
	}
	if !bytes.Equal(buf[frameHeader+recFixed:], []byte("xy")) {
		t.Fatalf("payload mangled")
	}
	// Any single corrupted byte must fail the CRC (or the header checks).
	for i := range buf {
		mut := append([]byte(nil), buf...)
		mut[i] ^= 0x01
		if _, _, ok := parseFrame(mut); ok && i != 0 {
			// Flipping the low bit of the length byte can still parse iff it
			// describes a shorter-but-valid frame, which a CRC over different
			// bytes cannot be; assert it really fails.
			t.Fatalf("parseFrame accepted corrupted byte %d", i)
		}
	}
	runtime.KeepAlive(buf)
}
