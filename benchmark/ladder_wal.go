package main

import (
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/server"
	"repro/internal/telemetry"
	"repro/internal/wal"
)

// ladder_wal.go is the ladder's contact with internal/wal: the server rung
// with an async log attached, and wal.Open/Append/WaitDurable/FsyncLatency/
// Replay driven directly.

// lflserver's default -fsync-window.
const fsyncWindow = 2 * time.Millisecond

// withWAL opens a log in dir and makes every server built from the rig
// publish to it asynchronously; close it after the last such server.
func (r *serverRig) withWAL(dir string) (*wal.Log, error) {
	l, err := wal.Open(wal.Options{Dir: dir, FsyncWindow: fsyncWindow})
	if err != nil {
		return nil, err
	}
	r.cfg.Durability = server.DurabilityAsync
	r.cfg.WAL = l
	return l, nil
}

// walDirect measures the log on its own in a fresh directory under parent.
func walDirect(parent string, res *result) error {
	dir, err := os.MkdirTemp(parent, "wal-direct-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	rec := telemetry.NewRecorder(runtime.GOMAXPROCS(0))
	l, err := wal.Open(wal.Options{Dir: dir, FsyncWindow: fsyncWindow, Telemetry: rec})
	if err != nil {
		return err
	}
	const records = ladderOps
	val := valueOf(0)
	start := time.Now()
	var last uint64
	for i := 0; i < records; i++ {
		last = l.Append(wal.OpSet, int64(i), val)
	}
	res.set("wal.append_ns", float64(time.Since(start))/records, "ns")
	if err := l.WaitDurable(last); err != nil {
		l.Close()
		return err
	}

	// Group commit as a sync-mode client sees it: append, wait, repeat.
	const acks = 512
	waits := make([]float64, 0, acks)
	for i := 0; i < acks; i++ {
		t0 := time.Now()
		if err := l.WaitDurable(l.Append(wal.OpDel, int64(i), "")); err != nil {
			l.Close()
			return err
		}
		waits = append(waits, float64(time.Since(t0))/1e3)
	}
	sort.Float64s(waits)
	res.set("wal.sync_ack_p50_us", waits[len(waits)/2], "us")

	fs := l.FsyncLatency()
	if v, ok := fs.Quantile(0.5); ok {
		res.set("wal.fsync_p50_us", float64(v)/1e3, "us")
	}
	if v, ok := fs.Quantile(0.99); ok {
		res.set("wal.fsync_p99_us", float64(v)/1e3, "us")
	}
	if err := l.Close(); err != nil {
		return err
	}
	c := rec.Snapshot().Counters
	res.set("wal.records_per_fsync", float64(c.WALAppends)/float64(max(c.WALFsyncs, 1)), "rec/fsync")
	var bytes int64
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	for _, s := range segs {
		if fi, err := os.Stat(s); err == nil {
			bytes += fi.Size()
		}
	}
	res.set("wal.bytes_per_record", float64(bytes)/(records+acks), "B")

	l, err = wal.Open(wal.Options{Dir: dir, FsyncWindow: fsyncWindow})
	if err != nil {
		return err
	}
	start = time.Now()
	n, err := l.Replay(0, func(wal.Op, uint64, int64, []byte) error { return nil })
	if err != nil {
		l.Close()
		return err
	}
	res.set("wal.replay_rec_per_s", float64(n)/time.Since(start).Seconds(), "rec/s")
	return l.Close()
}
