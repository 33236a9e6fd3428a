package main

import (
	"os"
	"time"

	"repro/internal/snapshot"
)

// ladder_snapshot.go drives snapshot.Write and snapshot.Restore directly:
// the store the wire rungs used is streamed out, and read back into a
// fresh store the way lflserver's boot does.

func snapshotDirect(parent string, store *libStore, res *result) error {
	dir, err := os.MkdirTemp(parent, "snapshot-direct-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	start := time.Now()
	keys, path, err := snapshot.Write(dir, 1, func(fn func(key int64, val string) bool) {
		store.Ascend(func(k int, v string) bool { return fn(int64(k), v) })
	}, nil)
	if err != nil {
		return err
	}
	res.set("snapshot.write_keys_per_s", float64(keys)/time.Since(start).Seconds(), "keys/s")
	if fi, err := os.Stat(path); err == nil {
		res.set("snapshot.bytes_per_key", float64(fi.Size())/float64(max(keys, 1)), "B/key")
	}
	fresh := newLibStore()
	start = time.Now()
	_, restored, err := snapshot.Restore(dir, func(k int64, v string) bool { return fresh.Insert(int(k), v) })
	if err != nil {
		return err
	}
	res.set("snapshot.restore_keys_per_s", float64(restored)/time.Since(start).Seconds(), "keys/s")
	if restored != keys || fresh.Len() != keys {
		res.Failed++
		res.note("snapshot: wrote %d keys, restored %d, store holds %d", keys, restored, fresh.Len())
	}
	return nil
}
