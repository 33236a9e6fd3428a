// Package snapshot writes and restores point-in-time images of the
// ordered map, taken concurrently with writers.
//
// A snapshot is *fuzzy*, in exactly the sense of the source paper's
// weak-consistency iteration guarantee (DESIGN.md §13): Write streams a
// live Ascend while mutators proceed, so
//
//   - every key that is present for the whole scan appears with the
//     value it held (values are immutable once inserted);
//   - a key inserted or deleted concurrently with the scan may appear
//     in either state (present or absent);
//   - no key that was never in the map can appear (no phantoms).
//
// The image is stamped with the WAL LSN current when the scan started.
// Because the server logs a mutation only after it applied, every
// record with seq ≤ that LSN is either in the image or superseded by a
// later logged mutation of the same key, so recovery — restore newest
// valid snapshot, then replay the WAL tail with seq > its LSN under
// insert-if-absent/delete semantics — converges per key.
//
// On-disk format (all integers little-endian):
//
//	header:  8B magic "LFLSNAP1" | 8B wal LSN
//	record:  1B tag=1 | 8B key | 4B value length | value bytes
//	footer:  1B tag=0 | 4B CRC32-C of every prior byte in the file
//
// Write lands atomically: tmp file → fsync → rename → directory fsync.
// Restore walks snapshots newest-first and falls back to an older one
// when the newest fails its CRC (torn or bit-rotted image). Recover is
// the whole boot path: Restore, then the WAL tail after the stamp.
package snapshot

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/instrument"
	"repro/internal/telemetry"
	"repro/internal/wal"
)

const (
	magic      = "LFLSNAP1"
	headerLen  = len(magic) + 8
	tagRecord  = 1
	tagEnd     = 0
	maxValLen  = 1 << 26 // parse guard against corrupt length fields
	filePrefix = "snap-"
	fileSuffix = ".snap"
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrNoSnapshot reports that the directory holds no valid snapshot.
var ErrNoSnapshot = errors.New("snapshot: no valid snapshot found")

// Write streams ascend into a new snapshot file in dir, stamped with
// lsn (the WAL LSN current when the caller started the scan). It
// returns the number of keys written and the file path. The scan runs
// concurrently with writers; see the package comment for the fuzzy
// guarantee. tel may be nil.
func Write(dir string, lsn uint64, ascend func(fn func(key int64, val string) bool), tel *telemetry.Recorder) (keys int, path string, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, "", err
	}
	final := filepath.Join(dir, fmt.Sprintf("%s%016d%s", filePrefix, lsn, fileSuffix))
	tmp, err := os.CreateTemp(dir, filePrefix+"tmp-*")
	if err != nil {
		return 0, "", err
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()

	crc := &crcWriter{w: tmp}
	w := bufio.NewWriterSize(crc, 1<<16)
	var scratch [13]byte
	// header = 8B magic + 8B lsn; scratch is reused for records after.
	if _, err = w.WriteString(magic); err != nil {
		return 0, "", err
	}
	binary.LittleEndian.PutUint64(scratch[:8], lsn)
	if _, err = w.Write(scratch[:8]); err != nil {
		return 0, "", err
	}

	ascend(func(key int64, val string) bool {
		scratch[0] = tagRecord
		binary.LittleEndian.PutUint64(scratch[1:], uint64(key))
		binary.LittleEndian.PutUint32(scratch[9:], uint32(len(val)))
		if _, err = w.Write(scratch[:13]); err != nil {
			return false
		}
		if _, err = w.WriteString(val); err != nil {
			return false
		}
		keys++
		return true
	})
	if err != nil {
		return 0, "", err
	}

	if err = w.WriteByte(tagEnd); err != nil {
		return 0, "", err
	}
	if err = w.Flush(); err != nil {
		return 0, "", err
	}
	// Everything is drained, so the CRC now covers every byte before it,
	// terminator tag included; it goes to the file raw (not folded into
	// itself).
	binary.LittleEndian.PutUint32(scratch[:4], crc.sum)
	if _, err = tmp.Write(scratch[:4]); err != nil {
		return 0, "", err
	}
	if err = tmp.Sync(); err != nil {
		return 0, "", err
	}
	if err = tmp.Close(); err != nil {
		return 0, "", err
	}
	if err = os.Rename(tmp.Name(), final); err != nil {
		return 0, "", err
	}
	if err = wal.SyncDir(dir); err != nil {
		return 0, "", err
	}
	if tel != nil {
		tel.AddCounter(instrument.CtrSnapshotKeys, uint64(keys))
	}
	return keys, final, nil
}

// Restore loads the newest valid snapshot in dir, calling insert for
// every record, and returns the WAL LSN it was stamped with plus the
// key count. A snapshot that fails validation is skipped in favor of
// the next older one. ErrNoSnapshot means dir holds no usable image
// (including the empty/missing-directory case — a cold start).
func Restore(dir string, insert func(key int64, val string) bool) (lsn uint64, keys int, err error) {
	files, err := list(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, 0, ErrNoSnapshot
		}
		return 0, 0, err
	}
	for i := len(files) - 1; i >= 0; i-- {
		lsn, keys, err = load(files[i].path, insert)
		if err == nil {
			return lsn, keys, nil
		}
		// Fall back to the next older image. load validates the whole
		// file before delivering a single record, so a torn or rotted
		// newest image leaves the caller's map untouched.
	}
	return 0, 0, ErrNoSnapshot
}

// Recovered is what Recover rebuilt a store from.
type Recovered struct {
	SnapshotLSN  uint64 // the restored image's stamp; 0 on a cold start
	SnapshotKeys int    // keys the image delivered
	WALRecords   int    // log records replayed after the stamp
}

// Recover is the one recovery routine: it restores the newest valid
// snapshot in dir through insert, opens the write-ahead log in dir with
// o, and replays every record after the snapshot's stamp through insert
// and del. Insert-if-absent and remove-if-present make that replay
// idempotent (see the package comment). The log is returned open, ready
// for the first Append.
func Recover(dir string, o wal.Options, insert func(key int64, val string) bool, del func(key int64)) (*wal.Log, Recovered, error) {
	var r Recovered
	var err error
	r.SnapshotLSN, r.SnapshotKeys, err = Restore(dir, insert)
	if err != nil && !errors.Is(err, ErrNoSnapshot) {
		return nil, r, fmt.Errorf("snapshot restore: %w", err)
	}
	o.Dir = dir
	l, err := wal.Open(o)
	if err != nil {
		return nil, r, fmt.Errorf("wal open: %w", err)
	}
	r.WALRecords, err = l.Replay(r.SnapshotLSN, func(op wal.Op, _ uint64, key int64, val []byte) error {
		if op == wal.OpSet {
			insert(key, string(val))
		} else {
			del(key)
		}
		return nil
	})
	if err != nil {
		l.Close()
		return nil, r, fmt.Errorf("wal replay: %w", err)
	}
	return l, r, nil
}

// Latest returns the LSN stamp of the newest snapshot file in dir
// without loading it, or 0 when there is none.
func Latest(dir string) uint64 {
	files, err := list(dir)
	if err != nil || len(files) == 0 {
		return 0
	}
	return files[len(files)-1].lsn
}

// Oldest returns the LSN stamp of the oldest snapshot file in dir
// without loading it, or 0 when there is none. The WAL may be pruned
// only up to this stamp: Restore falls back to older images when the
// newest fails its CRC, and a retained image without its replay tail
// would recover with a silent data gap.
func Oldest(dir string) uint64 {
	files, err := list(dir)
	if err != nil || len(files) == 0 {
		return 0
	}
	return files[0].lsn
}

// Prune removes every snapshot older than the newest keep images.
func Prune(dir string, keep int) error {
	files, err := list(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	if keep < 1 {
		keep = 1
	}
	for i := 0; i < len(files)-keep; i++ {
		if err := os.Remove(files[i].path); err != nil {
			return err
		}
	}
	return nil
}

// load reads one snapshot file, verifying magic, structure, and the
// footer CRC over the whole image *before* delivering any record — a
// rejected image leaves the caller's map untouched.
func load(path string, insert func(key int64, val string) bool) (lsn uint64, keys int, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, err
	}
	if len(data) < headerLen+1+4 {
		return 0, 0, fmt.Errorf("snapshot %s: short file (%d bytes)", path, len(data))
	}
	if string(data[:len(magic)]) != magic {
		return 0, 0, fmt.Errorf("snapshot %s: bad magic", path)
	}
	lsn = binary.LittleEndian.Uint64(data[len(magic):headerLen])
	body, footer := data[:len(data)-4], data[len(data)-4:]
	if got, want := binary.LittleEndian.Uint32(footer), crc32.Checksum(body, crcTable); got != want {
		return 0, 0, fmt.Errorf("snapshot %s: CRC mismatch: file %08x computed %08x", path, got, want)
	}

	off := headerLen
	for {
		if off >= len(body) {
			return 0, 0, fmt.Errorf("snapshot %s: missing terminator", path)
		}
		tag := body[off]
		off++
		if tag == tagEnd {
			if off != len(body) {
				return 0, 0, fmt.Errorf("snapshot %s: %d trailing bytes after terminator", path, len(body)-off)
			}
			break
		}
		if tag != tagRecord {
			return 0, 0, fmt.Errorf("snapshot %s: bad record tag %d at offset %d", path, tag, off-1)
		}
		if off+12 > len(body) {
			return 0, 0, fmt.Errorf("snapshot %s: truncated record at offset %d", path, off-1)
		}
		key := int64(binary.LittleEndian.Uint64(body[off:]))
		vlen := binary.LittleEndian.Uint32(body[off+8:])
		off += 12
		if vlen > maxValLen || off+int(vlen) > len(body) {
			return 0, 0, fmt.Errorf("snapshot %s: bad value length %d at offset %d", path, vlen, off-4)
		}
		if insert(key, string(body[off:off+int(vlen)])) {
			keys++
		}
		off += int(vlen)
	}
	return lsn, keys, nil
}

type snapFile struct {
	path string
	lsn  uint64
}

// list returns dir's snapshot files sorted by LSN stamp, oldest first.
func list(dir string) ([]snapFile, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []snapFile
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, filePrefix) || !strings.HasSuffix(name, fileSuffix) {
			continue
		}
		lsn, err := strconv.ParseUint(name[len(filePrefix):len(name)-len(fileSuffix)], 10, 64)
		if err != nil {
			continue // tmp files and strangers
		}
		out = append(out, snapFile{path: filepath.Join(dir, name), lsn: lsn})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].lsn < out[j].lsn })
	return out, nil
}

// crcWriter folds every byte the buffered writer drains through it into
// a running CRC32-C before passing it on: whole buffers at a time, and
// without the per-value []byte copy a CRC over each string would need.
type crcWriter struct {
	w   io.Writer
	sum uint32
}

func (c *crcWriter) Write(p []byte) (int, error) {
	c.sum = crc32.Update(c.sum, crcTable, p)
	return c.w.Write(p)
}
