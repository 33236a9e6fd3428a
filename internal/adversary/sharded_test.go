package adversary

import (
	"testing"

	"repro/internal/core"
)

// These schedules aim an adversary at the seam the range-sharded map adds:
// a key sitting exactly on a splitter, deleted while a batch that contains
// it is in flight. The batch must stay per-element linearizable — the
// element for the deleted key fails cleanly, every other element succeeds,
// and both shards stay structurally valid.

// TestShardedBoundaryKeyDeletedMidDeleteBatch parks a DeleteBatch right
// before it flags the predecessor of the boundary key 16 (the first key of
// shard 1), lets the adversary delete 16 completely, then releases the
// batch: its flag C&S must fail, the recovery re-search must discover the
// key gone, and the element must report false while the rest of the batch
// completes.
func TestShardedBoundaryKeyDeletedMidDeleteBatch(t *testing.T) {
	m := riggedMap([]int{16}, allHeight(1))
	for k := 10; k <= 22; k++ {
		m.Insert(nil, k, k)
	}

	c := NewController()
	c.PauseAt(1, core.PtBeforeFlagCAS)
	st := &core.OpStats{}
	batcher := &core.Proc{ID: 1, Stats: st, Hooks: c.HooksFor()}

	keys := []int{18, 14, 16, 17, 15} // sorts to [14 15 16 17 18]
	deleted := make([]bool, len(keys))
	res := make(chan int, 1)
	go func() { res <- m.DeleteBatch(batcher, keys, deleted) }()

	// Height-1 towers: each present element fires PtBeforeFlagCAS exactly
	// once. Let the shard-0 elements 14 and 15 delete normally.
	for i := 0; i < 2; i++ {
		c.AwaitParked(1, core.PtBeforeFlagCAS)
		c.Release(1)
	}
	// The batch has searched shard 1, located 16, and parked before the
	// flag C&S. Delete the boundary key out from under it.
	c.AwaitParked(1, core.PtBeforeFlagCAS)
	if _, ok := m.Delete(nil, 16); !ok {
		t.Fatal("adversary delete of boundary key 16 failed")
	}
	c.Release(1)
	// Elements 17 and 18 proceed normally.
	for i := 0; i < 2; i++ {
		c.AwaitParked(1, core.PtBeforeFlagCAS)
		c.Release(1)
	}

	if n := <-res; n != 4 {
		t.Fatalf("DeleteBatch = %d, want 4 (boundary element lost its race)", n)
	}
	want := []bool{true, true, false, true, true}
	for i, w := range want {
		if deleted[i] != w {
			t.Fatalf("deleted = %v, want %v (sorted keys %v)", deleted, want, keys)
		}
	}
	if st.CASAttempts <= st.CASSuccesses {
		t.Fatalf("schedule forced no failed C&S on the batch: %+v", st)
	}
	if got := m.Len(); got != 13-5 {
		t.Fatalf("Len = %d, want %d", got, 13-5)
	}
	if err := m.CheckStructure(); err != nil {
		t.Fatal(err)
	}
}

// TestShardedBoundaryKeyDeletedDuringGetBatch deletes the boundary key
// from inside the batch's own descent (an inline hook, the finger_test
// idiom). The sub-runs of both shards go down in the same rounds, so what
// decides the answer for key 16 is not which shard the batch is working on
// but which round it is in. One tower of shard 1, beyond the batch's keys,
// is two levels high: round 1 spends shard 1's turn on level 2, and it is
// round 2 that steps from the head onto 16. Deleted between the two rounds,
// 16 is found marked and the three keys that would step onto it finish
// through searchRight: a miss, linearized after the deletion. Deleted after
// round 2, 16 has been read unmarked - the batched Get's linearization
// point, before the deletion - and is reported found, while 17 and 18 walk
// on from a tower that is no longer in the list.
func TestShardedBoundaryKeyDeletedDuringGetBatch(t *testing.T) {
	for _, tc := range []struct {
		name        string
		deleteAfter int // the round whose end deletes key 16
		found16     bool
	}{
		{"before the round that steps onto 16", 1, false},
		{"after the round that steps onto 16", 2, true},
	} {
		m := riggedMap([]int{16}, func(k int) int {
			if k == 20 {
				return 2
			}
			return 1
		})
		for k := 10; k <= 22; k++ {
			m.Insert(nil, k, k)
		}
		if h := m.Search(nil, 20).Height(); h != 2 {
			t.Fatalf("%s: key 20 is %d levels high, want 2: the heights are not the rigged ones", tc.name, h)
		}
		rounds := 0
		p := &core.Proc{Hooks: core.HookFunc(func(pt core.Point, pid int) {
			if pt != core.PtSearchDone {
				return
			}
			if rounds++; rounds == tc.deleteAfter {
				if _, ok := m.Delete(nil, 16); !ok {
					t.Errorf("%s: hook delete of boundary key 16 failed", tc.name)
				}
			}
		})}

		keys := []int{16, 18, 14, 17, 15}
		vals := make([]int, len(keys))
		found := make([]bool, len(keys))
		want := []bool{true, true, tc.found16, true, true}
		wantN := 4
		if tc.found16 {
			wantN = 5
		}
		if n := m.GetBatch(p, keys, vals, found); n != wantN {
			t.Fatalf("%s: GetBatch = %d, want %d", tc.name, n, wantN)
		}
		for i, w := range want {
			if found[i] != w {
				t.Fatalf("%s: found = %v, want %v (sorted keys %v)", tc.name, found, want, keys)
			}
			if w && vals[i] != keys[i] {
				t.Fatalf("%s: vals[%d] = %d, want %d", tc.name, i, vals[i], keys[i])
			}
		}
		if got := m.Len(); got != 12 {
			t.Fatalf("%s: Len = %d, want 12", tc.name, got)
		}
		if err := m.CheckStructure(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
	}
}
