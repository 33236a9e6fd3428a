package core

import (
	"math/rand/v2"
	"testing"
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
// both sets.
func TestStepLedger(t *testing.T) {
	const (
		ops  = 400_000
		keys = 1 << 14
	)
	type row struct{ steps, cas, backlinks, helps uint64 }
	want := [3]row{
		{steps: 2912634, cas: 0, backlinks: 0, helps: 0},           // Get
		{steps: 4306115, cas: 141105, backlinks: 0, helps: 0},      // Insert
		{steps: 4599987, cas: 373914, backlinks: 0, helps: 249276}, // Delete
	}
	names := [3]string{"Get", "Insert", "Delete"}

	heights := rand.New(rand.NewPCG(2004, 17))
	l := NewSkipList[int, int](WithRandomSource(heights.Uint64))
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
