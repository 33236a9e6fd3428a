package core

import (
	"math/rand/v2"
	"testing"

	"repro/internal/instrument"
)

// TestStepLedger replays one seeded, single-threaded stream of skip-list
// operations over seeded tower heights and compares what each kind of
// operation paid - in the paper's currency, not in time - with constants
// recorded from this very test. A change that claims to move only layout
// (or only speed) must leave every row alone; a change that claims to save
// steps must say which row moves and by how much, and edit that row here.
//
// The rows were recorded at the commit before the tower became one object
// (node-per-level towers); the Delete row was then lowered once, by the
// commit that skips the sweep of a height-1 tower. CHANGES.md (PR 17) has
// both sets. The Insert and Delete rows were lowered once more by the
// commit that runs every update through one bracket record, so a point
// Insert links its tower's upper levels, and a point Delete sweeps them,
// from the brackets its level-1 search left instead of from the head:
// Insert 4306115 -> 3055291 steps, Delete 3970755 -> 3348863; the Get
// row and every cas, backlinks and helps column did not move.
//
// Every row was re-recorded once more when tower heights became a seeded
// hash of the key at fan-out 4 (package heights) in place of coin flips
// at fan-out 2 from a PCG stream. The shape moved, so every row moved;
// no bound was loosened. Before, at fan-out 2:
//
//	Get    {steps: 2912634, cas: 0, backlinks: 0, helps: 0}
//	Insert {steps: 3055291, cas: 141105, backlinks: 0, helps: 0}
//	Delete {steps: 3348863, cas: 373914, backlinks: 0, helps: 249276}
//
// A step is half a horizontal move (IncCurr plus IncNext); a down-step
// and the comparison that stops each level are not counted. Fan-out 4
// makes three moves a level where fan-out 2 makes one, over half as many
// levels, so the step columns rise - here by 1.6-1.75x, by about 1.45x
// averaged over seeds (TestStepLedgerGetSizes) - while Pugh's comparison
// count (moves plus one stop a level) stays level. The C&S and help
// columns fall by a third: a tower has 4/3 levels to link and sweep where
// it had 2.
func TestStepLedger(t *testing.T) {
	const (
		ops  = 400_000
		keys = 1 << 14
	)
	type row struct{ steps, cas, backlinks, helps uint64 }
	want := [3]row{
		{steps: 5083170, cas: 0, backlinks: 0, helps: 0},           // Get
		{steps: 5178579, cas: 94453, backlinks: 0, helps: 0},       // Insert
		{steps: 5354821, cas: 250779, backlinks: 0, helps: 167186}, // Delete
	}
	names := [3]string{"Get", "Insert", "Delete"}

	l := NewSkipList[int, int]()
	stream := rand.New(rand.NewPCG(17, 2004))
	var stats [3]OpStats
	procs := [3]*Proc{{Stats: &stats[0]}, {Stats: &stats[1]}, {Stats: &stats[2]}}
	present := make(map[int]bool, keys)
	for i := 0; i < ops; i++ {
		k := stream.IntN(keys)
		switch kind := stream.IntN(3); kind {
		case 0:
			if v, ok := l.Get(procs[kind], k); ok != present[k] || (ok && v != k) {
				t.Fatalf("op %d: Get(%d) = %d, %t with present=%t", i, k, v, ok, present[k])
			}
		case 1:
			if _, ok := l.Insert(procs[kind], k, k); ok == present[k] {
				t.Fatalf("op %d: Insert(%d) = %t with present=%t", i, k, ok, present[k])
			}
			present[k] = true
		case 2:
			if _, ok := l.Delete(procs[kind], k); ok != present[k] {
				t.Fatalf("op %d: Delete(%d) = %t with present=%t", i, k, ok, present[k])
			}
			present[k] = false
		}
	}
	if err := l.CheckStructure(); err != nil {
		t.Fatal(err)
	}
	for i, st := range stats {
		got := row{st.EssentialSteps(), st.CASAttempts, st.BacklinkTraversals, st.HelpCalls}
		t.Logf("%-6s {steps: %d, cas: %d, backlinks: %d, helps: %d}", names[i], got.steps, got.cas, got.backlinks, got.helps)
		if got != want[i] {
			t.Errorf("%s paid %+v, the ledger says %+v", names[i], got, want[i])
		}
	}
}

// TestStepLedgerGetSizes is the ledger's point-read page at the two sizes
// the fan-out was chosen at: 2^14 seeded Gets of present keys over a skip
// list holding 0..n-1. The same hash at fan-out 2 (one bit a level) paid
// 338620 and 625674 steps. Over seeds 1-6 the steps per Get spread
// 20.0-22.6 and 32.9-38.2 at fan-out 2, 28.8-36.2 and 47.7-60.2 at
// fan-out 4: the sparser upper levels make the shape matter more.
func TestStepLedgerGetSizes(t *testing.T) {
	const lookups = 1 << 14
	for _, tc := range []struct {
		keys  int
		steps uint64
	}{
		{1 << 12, 464986},
		{1 << 19, 889728},
	} {
		if raceEnabled && tc.keys > 1<<12 {
			continue // one goroutine, nothing to race: 2^19 inserts under the detector take half a minute
		}
		l := NewSkipList[int, int]()
		for k := 0; k < tc.keys; k++ {
			l.Insert(nil, k, k)
		}
		stream := rand.New(rand.NewPCG(17, 2004))
		var st OpStats
		p := &Proc{Stats: &st}
		for i := 0; i < lookups; i++ {
			k := stream.IntN(tc.keys)
			if _, ok := l.Get(p, k); !ok {
				t.Fatalf("%d keys: Get(%d) missed", tc.keys, k)
			}
		}
		t.Logf("Get at %d keys {steps: %d, cas: %d}", tc.keys, st.EssentialSteps(), st.CASAttempts)
		if got := st.EssentialSteps(); got != tc.steps || st.CASAttempts != 0 {
			t.Errorf("Get at %d keys paid %d steps and %d C&S, the ledger says %d and 0", tc.keys, got, st.CASAttempts, tc.steps)
		}
	}
}

// TestStepLedgerGetBatch is the ledger's read-batch page: seeded batches on
// the seeded 2^17-key structure of fingersteps_test.go, 16384 keys a row.
// The rows were recorded when GetBatch became a shared descent (descent.go);
// the commit before, which threaded a finger through each batch, paid
// 418980, 367552 and 153048 steps for the same batches. The two 64-key rows
// were lowered once, by the commit that resumes each group after the first
// from the brackets the previous group's last key went down through
// (349966 and 142126 before it); a 16-key batch is one group and did not
// move. All three were re-recorded when tower heights became a hash of
// the key at fan-out 4 (see TestStepLedger): 403830, 349320 and 133862
// steps before, 594836, 508600 and 184626 after; the shape moved.
func TestStepLedgerGetBatch(t *testing.T) {
	const lookups = 1 << 14
	type row struct{ steps, cas, helps uint64 }
	for _, tc := range []struct {
		name   string
		width  int
		window int // keys of one batch fall in a window this wide
		want   row
	}{
		{"uniform 16", 16, fingerStepKeys, row{steps: 594836}},
		{"uniform 64", 64, fingerStepKeys, row{steps: 508600}},
		{"clustered 64", 64, 1024, row{steps: 184626}},
	} {
		l := seededSkipList(fingerStepKeys)
		rng := rand.New(rand.NewPCG(19, 2004))
		st := &OpStats{}
		p := &Proc{Stats: st}
		keys := make([]int, tc.width)
		for b := 0; b < lookups/tc.width; b++ {
			base := rng.IntN(fingerStepKeys - tc.window + 1)
			for i := range keys {
				keys[i] = base + rng.IntN(tc.window)
			}
			if n := l.GetBatch(p, keys, nil, nil); n != len(keys) {
				t.Fatalf("%s: GetBatch found %d of %d keys", tc.name, n, len(keys))
			}
		}
		got := row{st.EssentialSteps(), st.CASAttempts, st.HelpCalls}
		t.Logf("%-12s {steps: %d, cas: %d, helps: %d}", tc.name, got.steps, got.cas, got.helps)
		if got != tc.want {
			t.Errorf("%s paid %+v, the ledger says %+v", tc.name, got, tc.want)
		}
	}
}

// TestStepLedgerList is the ledger's list page: one seeded point mix over
// 1024 keys, then clustered rounds through the batch and finger paths on
// the same list, each kind of call paying into its own row. It was
// recorded before the list became the skip list's level 1 and must read
// the same after: the level routines are the paper's Figures 3-5.
func TestStepLedgerList(t *testing.T) {
	const (
		ops    = 40_000
		keys   = 1 << 10
		rounds = 400
		window = 128
		width  = 16
	)
	type row struct{ steps, cas, backlinks, helps uint64 }
	names := [7]string{"Get", "Insert", "Delete", "GetBatch", "InsertBatch", "DeleteBatch", "finger"}
	want := [7]row{
		{steps: 6531652, cas: 0, backlinks: 0, helps: 0},         // Get
		{steps: 6371250, cas: 6924, backlinks: 0, helps: 0},      // Insert
		{steps: 6519807, cas: 19383, backlinks: 0, helps: 12922}, // Delete
		{steps: 15638, cas: 0, backlinks: 0, helps: 0},           // GetBatch
		{steps: 21414, cas: 5776, backlinks: 0, helps: 0},        // InsertBatch
		{steps: 33214, cas: 18072, backlinks: 0, helps: 12048},   // DeleteBatch
		{steps: 49537, cas: 25391, backlinks: 0, helps: 12800},   // finger
	}
	var stats [7]OpStats
	var procs [7]*Proc
	for i := range procs {
		procs[i] = &Proc{Stats: &stats[i]}
	}

	l := NewList[int, int]()
	stream := rand.New(rand.NewPCG(17, 2004))
	present := make(map[int]bool, keys)
	for i := 0; i < ops; i++ {
		k := stream.IntN(keys)
		switch kind := stream.IntN(3); kind {
		case 0:
			if v, ok := l.Get(procs[kind], k); ok != present[k] || (ok && v != k) {
				t.Fatalf("op %d: Get(%d) = %d, %t with present=%t", i, k, v, ok, present[k])
			}
		case 1:
			if _, ok := l.Insert(procs[kind], k, k); ok == present[k] {
				t.Fatalf("op %d: Insert(%d) = %t with present=%t", i, k, ok, present[k])
			}
			present[k] = true
		case 2:
			if _, ok := l.Delete(procs[kind], k); ok != present[k] {
				t.Fatalf("op %d: Delete(%d) = %t with present=%t", i, k, ok, present[k])
			}
			present[k] = false
		}
	}

	clustered := rand.New(rand.NewPCG(19, 2004))
	batch := make([]int, width)
	items := make([]KV[int, int], width)
	for r := 0; r < rounds; r++ {
		base := clustered.IntN(keys - window)
		for i := range batch {
			batch[i] = base + clustered.IntN(window)
			items[i] = KV[int, int]{Key: batch[i], Value: batch[i]}
		}
		l.GetBatch(procs[3], append([]int(nil), batch...), nil, nil)
		l.InsertBatch(procs[4], items, nil)
		if n := l.DeleteBatch(procs[5], batch, nil); n == 0 {
			t.Fatalf("round %d: DeleteBatch deleted nothing it had just inserted", r)
		}
		f := l.NewFinger()
		for k := base; k < base+width; k++ {
			f.Insert(procs[6], k, k)
		}
		for k := base; k < base+width; k++ {
			if _, ok := f.Delete(procs[6], k); !ok {
				t.Fatalf("round %d: finger Delete(%d) failed", r, k)
			}
		}
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for i, st := range stats {
		got := row{st.EssentialSteps(), st.CASAttempts, st.BacklinkTraversals, st.HelpCalls}
		t.Logf("%-11s {steps: %d, cas: %d, backlinks: %d, helps: %d}", names[i], got.steps, got.cas, got.backlinks, got.helps)
		if got != want[i] {
			t.Errorf("%s paid %+v, the ledger says %+v", names[i], got, want[i])
		}
	}
}

// TestDeleteSweepsOnlyTowersWithUpperLevels: a tower of height 1 was never
// linked above level 1 and never will be, so its deletion is the strict
// search plus the three C&S and nothing else - no second descent. A taller
// tower is still swept off every upper level. Through a finger likewise.
func TestDeleteSweepsOnlyTowersWithUpperLevels(t *testing.T) {
	type deleter func(l *SkipList[int, int], p *Proc, k int) bool
	for name, del := range map[string]deleter{
		"point":  func(l *SkipList[int, int], p *Proc, k int) bool { _, ok := l.Delete(p, k); return ok },
		"finger": func(l *SkipList[int, int], p *Proc, k int) bool { _, ok := l.NewFinger().Delete(p, k); return ok },
	} {
		l := rigged(func(k int) int { return [4]int{1, 3, 1, 2}[k%4] }) // keys 4j+1 get height 3, 4j+3 height 2
		for k := 0; k < 64; k++ {
			l.Insert(nil, k, k)
		}
		// count runs fn and returns what it paid and how many level
		// traversals (searchRight calls) it made.
		count := func(fn func(p *Proc)) (OpStats, int) {
			var st OpStats
			levels := 0
			fn(&Proc{Stats: &st, Hooks: instrument.HookFunc(func(pt Point, _ int) {
				if pt == PtSearchDone {
					levels++
				}
			})})
			return st, levels
		}
		for _, k := range []int{20, 21} {
			height := l.Search(nil, k).Height()
			search, searchLevels := count(func(p *Proc) { l.searchToLevel(p, k, 1, true) })
			paid, levels := count(func(p *Proc) {
				if !del(l, p, k) {
					t.Fatalf("%s: Delete(%d) failed", name, k)
				}
			})
			if height == 1 {
				if paid.CASAttempts != 3 || paid.EssentialSteps() != search.EssentialSteps()+3 || levels != searchLevels {
					t.Errorf("%s: deleting height-1 key %d paid %d steps, %d C&S over %d level traversals; the strict search alone pays %d over %d",
						name, k, paid.EssentialSteps(), paid.CASAttempts, levels, search.EssentialSteps(), searchLevels)
				}
			} else if levels <= searchLevels || paid.CASAttempts != uint64(3*height) {
				t.Errorf("%s: deleting height-%d key %d made %d level traversals (search: %d) and %d C&S: no sweep?",
					name, height, k, levels, searchLevels, paid.CASAttempts)
			}
			for lv := 1; lv <= 3; lv++ {
				for _, st := range l.LevelSnapshot(lv) {
					if st.Sentinel == "" && st.Key == k {
						t.Errorf("%s: deleted key %d is still linked on level %d", name, k, lv)
					}
				}
			}
		}
		if err := l.CheckStructure(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
