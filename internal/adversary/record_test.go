package adversary

import (
	"slices"
	"testing"

	"repro/internal/core"
)

// These schedules pin the point updates' use of their bracket record
// (internal/core/finger.go): the level-1 search of an Insert or Delete
// leaves a predecessor on every level, and the tower's upper levels are
// inserted, or swept, from those predecessors. When one of them is fully
// deleted in between, the update must recover over its backlinks, as a
// finger does, and still leave the tower linked on, or unlinked from,
// every level.

// tensList returns a skip list holding 10, 20, ..., 630 whose towers are
// rigged into a perfect skip list - key 10k has 1 + trailing-zeros(k)
// levels - so that 140, 160 and 180 stand on level 2, 160 also on levels
// 3-5, and 170 on level 1 alone. Every other key gets a tower of height
// next.
func tensList(t *testing.T, next int) *core.SkipList[int, int] {
	t.Helper()
	l := rigged(func(k int) int {
		if k%10 == 0 && k/10 < 64 {
			return perfect(k / 10)
		}
		return next
	})
	for i := 1; i < 64; i++ {
		l.Insert(nil, 10*i, 10*i)
	}
	if lv5 := l.LevelSnapshot(5); len(lv5) < 2 || lv5[1].Key != 160 {
		t.Fatalf("level 5 is %v, want head, 160, ...: the heights are not the rigged ones", lv5)
	}
	return l
}

// onLevel reports whether key k is linked on level lv.
func onLevel(l *core.SkipList[int, int], k, lv int) bool {
	return slices.ContainsFunc(l.LevelSnapshot(lv), func(s core.NodeState[int]) bool {
		return s.Sentinel == "" && s.Key == k
	})
}

// TestPointInsertRecoversDeletedBracket: a point Insert of 175, a tower of
// height 2, records 170 as its level-1 and 160 as its level-2 predecessor.
// The inserter is parked at its level-1 C&S - the last hook before its
// level-2 insertion resumes from the recorded bracket - while 160 is
// deleted in full (flagged, marked and unlinked on all five of its
// levels). Released, the insert links level 1 from 170 and then recovers
// level 2 over 160's backlink to 140, where 175 belongs before 180: one
// backlink step and not a single node advanced, where a restart from the
// head tower would walk down from level 6.
func TestPointInsertRecoversDeletedBracket(t *testing.T) {
	l := tensList(t, 2)
	c := NewController()
	c.PauseAt(1, core.PtBeforeInsertCAS)
	st := &core.OpStats{}
	inserter := &core.Proc{ID: 1, Stats: st, Hooks: c.HooksFor()}
	res := make(chan bool, 1)
	go func() {
		_, ok := l.Insert(inserter, 175, 175)
		res <- ok
	}()
	c.AwaitParked(1, core.PtBeforeInsertCAS)
	parked := *st

	if _, ok := l.Delete(nil, 160); !ok {
		t.Fatal("Delete(160) failed")
	}
	c.ClearAllPauses()
	c.Release(1)
	if !<-res {
		t.Fatal("Insert(175) failed")
	}

	if d := st.BacklinkTraversals - parked.BacklinkTraversals; d != 1 {
		t.Errorf("level-2 insertion walked %d backlinks, want 1: 160 -> 140", d)
	}
	if d := st.CurrUpdates - parked.CurrUpdates; d != 0 {
		t.Errorf("level-2 insertion advanced %d nodes from its recovered bracket, want 0", d)
	}
	if d := st.CASAttempts - parked.CASAttempts; d != 2 || st.CASSuccesses-parked.CASSuccesses != 2 {
		t.Errorf("insertion tried %d C&S after the deletion, want 2 successful ones: one per level", d)
	}
	for lv := 1; lv <= 2; lv++ {
		if !onLevel(l, 175, lv) {
			t.Errorf("175 is not linked on level %d", lv)
		}
	}
	for lv := 1; lv <= 5; lv++ {
		if onLevel(l, 160, lv) {
			t.Errorf("deleted 160 is still linked on level %d", lv)
		}
	}
	if err := l.CheckStructure(); err != nil {
		t.Fatal(err)
	}
}

// TestPointDeleteSweepsFromDeletedBracket: a point Delete of 180, a tower
// of height 2, records 170 on level 1 and 160 on levels 2-5. The deleter
// is parked at its level-1 physical C&S - 180 is marked, the deletion has
// linearized, the sweep is still to come - while 160 is deleted in full.
// Released, the sweep must recover each remembered level over 160's
// backlinks and still unlink 180's superfluous level-2 node.
func TestPointDeleteSweepsFromDeletedBracket(t *testing.T) {
	l := tensList(t, 1)
	c := NewController()
	c.PauseAt(1, core.PtBeforePhysicalCAS)
	st := &core.OpStats{}
	deleter := &core.Proc{ID: 1, Stats: st, Hooks: c.HooksFor()}
	res := make(chan bool, 1)
	go func() {
		_, ok := l.Delete(deleter, 180)
		res <- ok
	}()
	c.AwaitParked(1, core.PtBeforePhysicalCAS)
	parked := *st

	if _, ok := l.Delete(nil, 160); !ok {
		t.Fatal("Delete(160) failed")
	}
	c.ClearAllPauses()
	c.Release(1)
	if !<-res {
		t.Fatal("Delete(180) failed")
	}

	// 160 was the remembered predecessor on levels 2-5: the sweep walks
	// its backlink on each of them.
	if d := st.BacklinkTraversals - parked.BacklinkTraversals; d != 4 {
		t.Errorf("sweep walked %d backlinks, want 4: one from 160 on each of levels 2-5", d)
	}
	for lv := 1; lv <= 5; lv++ {
		for _, k := range []int{160, 180} {
			if onLevel(l, k, lv) {
				t.Errorf("deleted %d is still linked on level %d", k, lv)
			}
		}
	}
	if _, ok := l.Get(nil, 180); ok {
		t.Fatal("180 still present")
	}
	if err := l.CheckStructure(); err != nil {
		t.Fatal(err)
	}
}
