package snapshot

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/wal"
	"repro/lockfree"
)

func ascendOf(s *lockfree.SkipList[int64, string]) func(fn func(key int64, val string) bool) {
	return s.Ascend
}

func restoreMap(t *testing.T, dir string) (uint64, map[int64]string) {
	t.Helper()
	got := map[int64]string{}
	lsn, keys, err := Restore(dir, func(k int64, v string) bool {
		if _, dup := got[k]; dup {
			return false
		}
		got[k] = v
		return true
	})
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if keys != len(got) {
		t.Fatalf("Restore reported %d keys, delivered %d", keys, len(got))
	}
	return lsn, got
}

func TestWriteRestoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := lockfree.NewSkipList[int64, string]()
	want := map[int64]string{}
	for i := int64(0); i < 500; i++ {
		v := fmt.Sprintf("val-%d", i)
		s.Insert(i*3, v)
		want[i*3] = v
	}
	// The empty value and extreme keys must round-trip too.
	s.Insert(-1<<40, "")
	want[-1<<40] = ""

	keys, path, err := Write(dir, 4242, ascendOf(s), nil)
	if err != nil {
		t.Fatalf("Write: %v", err)
	}
	if keys != len(want) {
		t.Fatalf("Write reported %d keys, want %d", keys, len(want))
	}
	if filepath.Base(path) != "snap-0000000000004242.snap" {
		t.Fatalf("unexpected snapshot name %q", path)
	}
	lsn, got := restoreMap(t, dir)
	if lsn != 4242 {
		t.Fatalf("restored LSN %d, want 4242", lsn)
	}
	if len(got) != len(want) {
		t.Fatalf("restored %d keys, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("key %d restored as %q, want %q", k, got[k], v)
		}
	}
	if l := Latest(dir); l != 4242 {
		t.Fatalf("Latest = %d, want 4242", l)
	}
}

// TestFuzzySnapshotSemantics pins the documented fuzzy guarantee while
// inserts and deletes run concurrently with Write: stable keys always
// appear with their value, in-flight keys appear in either state, and
// nothing else appears.
func TestFuzzySnapshotSemantics(t *testing.T) {
	dir := t.TempDir()
	s := lockfree.NewSkipList[int64, string]()

	// Stable keys: inserted before the scan, never touched during it.
	const stableN = 2000
	stable := map[int64]string{}
	for i := int64(0); i < stableN; i++ {
		k := i * 2 // even keys are stable
		v := fmt.Sprintf("stable-%d", k)
		s.Insert(k, v)
		stable[k] = v
	}

	// Churners: odd keys flickering in and out for the whole scan.
	const churnN = 1000
	var stopChurn atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; !stopChurn.Load(); i++ {
				k := int64(((w*churnN+i)%(4*churnN))*2 + 1)
				if i%2 == 0 {
					s.Insert(k, fmt.Sprintf("flux-%d", k))
				} else {
					s.Delete(k)
				}
			}
		}(w)
	}

	keys, _, err := Write(dir, 77, ascendOf(s), nil)
	stopChurn.Store(true)
	wg.Wait()
	if err != nil {
		t.Fatalf("Write under churn: %v", err)
	}
	if keys < stableN {
		t.Fatalf("snapshot holds %d keys, fewer than the %d stable keys", keys, stableN)
	}

	lsn, got := restoreMap(t, dir)
	if lsn != 77 {
		t.Fatalf("restored LSN %d, want 77", lsn)
	}
	for k, v := range stable {
		gv, ok := got[k]
		if !ok {
			t.Fatalf("stable key %d missing from fuzzy snapshot", k)
		}
		if gv != v {
			t.Fatalf("stable key %d restored as %q, want %q", k, gv, v)
		}
	}
	for k, v := range got {
		if k%2 == 0 {
			continue // stable, checked above
		}
		// In-flight key: allowed in either state, but a present one must
		// carry the value a churner actually inserted — no phantoms, no
		// mangled values.
		if want := fmt.Sprintf("flux-%d", k); v != want {
			t.Fatalf("in-flight key %d has phantom value %q", k, v)
		}
		if k < 0 || k >= 8*churnN {
			t.Fatalf("phantom key %d was never inserted", k)
		}
	}
}

func TestRestoreFallsBackPastCorruptNewest(t *testing.T) {
	for _, damage := range []string{"bitflip", "truncate"} {
		t.Run(damage, func(t *testing.T) {
			dir := t.TempDir()
			s := lockfree.NewSkipList[int64, string]()
			s.Insert(1, "old")
			if _, _, err := Write(dir, 10, ascendOf(s), nil); err != nil {
				t.Fatal(err)
			}
			s.Insert(2, "new")
			_, path, err := Write(dir, 20, ascendOf(s), nil)
			if err != nil {
				t.Fatal(err)
			}

			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			switch damage {
			case "bitflip":
				data[headerLen+3] ^= 0x10
				err = os.WriteFile(path, data, 0o644)
			case "truncate":
				err = os.WriteFile(path, data[:len(data)-3], 0o644)
			}
			if err != nil {
				t.Fatal(err)
			}

			lsn, got := restoreMap(t, dir)
			if lsn != 10 {
				t.Fatalf("fallback restored LSN %d, want 10 (the older image)", lsn)
			}
			if len(got) != 1 || got[1] != "old" {
				t.Fatalf("fallback restored %v, want only key 1 from the older image", got)
			}
		})
	}
}

func TestRestoreEmptyDir(t *testing.T) {
	if _, _, err := Restore(t.TempDir(), func(int64, string) bool { return true }); err != ErrNoSnapshot {
		t.Fatalf("Restore on empty dir: %v, want ErrNoSnapshot", err)
	}
	if _, _, err := Restore(filepath.Join(t.TempDir(), "nope"), func(int64, string) bool { return true }); err != ErrNoSnapshot {
		t.Fatalf("Restore on missing dir: %v, want ErrNoSnapshot", err)
	}
}

func TestPruneKeepsNewest(t *testing.T) {
	dir := t.TempDir()
	s := lockfree.NewSkipList[int64, string]()
	s.Insert(1, "v")
	for _, lsn := range []uint64{5, 6, 7, 8} {
		if _, _, err := Write(dir, lsn, ascendOf(s), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := Prune(dir, 2); err != nil {
		t.Fatalf("Prune: %v", err)
	}
	files, err := list(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 2 || files[0].lsn != 7 || files[1].lsn != 8 {
		t.Fatalf("after Prune(2): %+v, want LSNs 7,8", files)
	}
	// Oldest is the WAL-prune bound: the older retained image still needs
	// its replay tail, so the WAL may only be pruned up to LSN 7 here.
	if o := Oldest(dir); o != 7 {
		t.Fatalf("Oldest after Prune(2) = %d, want 7", o)
	}
	if o := Oldest(filepath.Join(dir, "nope")); o != 0 {
		t.Fatalf("Oldest on missing dir = %d, want 0", o)
	}
}

// TestWriteAllocsIndependentOfKeyCount pins the snapshot writer's
// allocation count as a constant: the per-snapshot set-up (temp file,
// buffer, name) may allocate, the per-key path may not — values longer
// than the runtime's 32-byte stack scratch used to cost one heap copy each.
func TestWriteAllocsIndependentOfKeyCount(t *testing.T) {
	dir := t.TempDir()
	val := strings.Repeat("v", 100)
	allocsFor := func(keys int) float64 {
		ascend := func(fn func(key int64, val string) bool) {
			for k := 0; k < keys; k++ {
				if !fn(int64(k), val) {
					return
				}
			}
		}
		return testing.AllocsPerRun(3, func() {
			if n, _, err := Write(dir, 7, ascend, nil); err != nil || n != keys {
				t.Fatalf("Write = %d keys, %v; want %d", n, err, keys)
			}
		})
	}
	small, large := allocsFor(100), allocsFor(10_000)
	if large > small+2 { // a little slack for the runtime's own bookkeeping
		t.Fatalf("Write allocates %v objects for 10000 keys but %v for 100: the per-key path allocates", large, small)
	}
}

// TestRecoverSnapshotPlusTail runs the boot path: an image stamped at
// LSN 3, a log whose records 1-3 the image covers and 4-6 it does not.
// Recover restores the image, replays only the tail, reports both counts
// and returns the log open after the last record.
func TestRecoverSnapshotPlusTail(t *testing.T) {
	dir := t.TempDir()
	l, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	l.Append(wal.OpSet, 1, "one")
	l.Append(wal.OpSet, 2, "two")
	l.Append(wal.OpDel, 1, "")
	s := lockfree.NewSkipList[int64, string]()
	s.Insert(2, "two")
	if _, _, err := Write(dir, l.LastLSN(), ascendOf(s), nil); err != nil {
		t.Fatal(err)
	}
	l.Append(wal.OpSet, 3, "three")
	l.Append(wal.OpDel, 2, "")
	l.Append(wal.OpSet, 4, "four")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	got := map[int64]string{}
	insert := func(k int64, v string) bool {
		if _, dup := got[k]; dup {
			return false
		}
		got[k] = v
		return true
	}
	del := func(k int64) { delete(got, k) }
	l, r, err := Recover(dir, wal.Options{}, insert, del)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	defer l.Close()
	if want := (Recovered{SnapshotLSN: 3, SnapshotKeys: 1, WALRecords: 3}); r != want {
		t.Fatalf("Recover = %+v, want %+v", r, want)
	}
	if len(got) != 2 || got[3] != "three" || got[4] != "four" {
		t.Fatalf("recovered %v, want map[3:three 4:four]", got)
	}
	if lsn := l.Append(wal.OpSet, 5, "five"); lsn != 7 {
		t.Fatalf("first Append after Recover got LSN %d, want 7", lsn)
	}
}
