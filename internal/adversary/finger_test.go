package adversary

import (
	"testing"

	"repro/internal/core"
)

// These schedules pin the finger-validity invariant stated in
// internal/core/finger.go and DESIGN.md: when the node a finger remembers
// is deleted - at any stage of the three-step deletion - the next
// operation through the finger recovers over the deletion's backlinks. It
// must count as a finger hit (no fallback to the head or head tower), and
// its search must stay local: a handful of node steps, not a full pass.

// TestFingerSurvivesFullDeletion deletes the finger's remembered node
// completely - flag, mark, physical unlink all done - between operations.
func TestFingerSurvivesFullDeletion(t *testing.T) {
	l := core.NewList[int, int]()
	for i := 0; i < 32; i++ {
		l.Insert(nil, i, i)
	}
	f := l.NewFinger()
	if _, ok := f.Get(nil, 10); !ok {
		t.Fatal("Get(10) failed")
	}
	if _, ok := l.Delete(nil, 10); !ok {
		t.Fatal("Delete(10) failed")
	}
	st := &core.OpStats{}
	v, ok := f.Get(&core.Proc{Stats: st}, 12)
	if !ok || v != 12 {
		t.Fatalf("Get(12) = %d, %t; want 12, true", v, ok)
	}
	if st.FingerHits != 1 || st.FingerMisses != 0 {
		t.Fatalf("hits/misses = %d/%d, want 1/0 (recovery, not head fallback)",
			st.FingerHits, st.FingerMisses)
	}
	if st.BacklinkTraversals == 0 {
		t.Fatal("recovery did not traverse backlinks")
	}
	if st.CurrUpdates > 5 {
		t.Fatalf("recovery cost %d curr updates; a head restart would, a backlink recovery must not",
			st.CurrUpdates)
	}
}

// TestFingerSurvivesDeletionParkedBeforeUnlink parks the deleter right
// before its physical-deletion C&S, so the finger's node is flagged-at-
// the-predecessor and marked but still linked when the finger operates.
// The finger must walk the fresh backlink, help the stalled deletion past
// it, and complete - the paper's helping rule applied to a finger.
func TestFingerSurvivesDeletionParkedBeforeUnlink(t *testing.T) {
	l := core.NewList[int, int]()
	for i := 0; i < 32; i++ {
		l.Insert(nil, i, i)
	}
	f := l.NewFinger()
	if _, ok := f.Get(nil, 10); !ok {
		t.Fatal("Get(10) failed")
	}

	c := NewController()
	c.PauseAt(1, core.PtBeforePhysicalCAS)
	deleter := &core.Proc{ID: 1, Hooks: c.HooksFor()}
	res := make(chan bool, 1)
	go func() {
		_, ok := l.Delete(deleter, 10)
		res <- ok
	}()
	c.AwaitParked(1, core.PtBeforePhysicalCAS)

	// Node 10 is marked with its backlink set, still physically present.
	st := &core.OpStats{}
	v, ok := f.Get(&core.Proc{Stats: st}, 12)
	if !ok || v != 12 {
		t.Fatalf("Get(12) = %d, %t; want 12, true", v, ok)
	}
	if st.FingerHits != 1 || st.FingerMisses != 0 {
		t.Fatalf("hits/misses = %d/%d, want 1/0", st.FingerHits, st.FingerMisses)
	}
	if st.BacklinkTraversals == 0 {
		t.Fatal("finger did not traverse the marked node's backlink")
	}
	if st.HelpCalls == 0 {
		t.Fatal("finger search did not help the stalled physical deletion")
	}

	c.ClearAllPauses()
	c.Release(1)
	if !<-res {
		t.Fatal("stalled deleter did not report success")
	}
	if _, ok := l.Get(nil, 10); ok {
		t.Fatal("key 10 still present")
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestFingerFallsBackOnlyForSmallerKeys pins the fallback contract: after
// its node is deleted, a finger falls back to the head only when the
// target key orders below the recovered position, never because of the
// deletion itself.
func TestFingerFallsBackOnlyForSmallerKeys(t *testing.T) {
	l := core.NewList[int, int]()
	for i := 0; i < 32; i++ {
		l.Insert(nil, i, i)
	}
	f := l.NewFinger()
	f.Get(nil, 10)
	l.Delete(nil, 10)
	st := &core.OpStats{}
	p := &core.Proc{Stats: st}
	// Backlink recovery lands on node 9; key 9 itself is >= that, a hit.
	if v, ok := f.Get(p, 9); !ok || v != 9 {
		t.Fatalf("Get(9) = %d, %t; want 9, true", v, ok)
	}
	if st.FingerHits != 1 || st.FingerMisses != 0 {
		t.Fatalf("hits/misses after recovery to 9 = %d/%d, want 1/0", st.FingerHits, st.FingerMisses)
	}
	// Key 5 orders below the finger: the one legitimate head fallback.
	if v, ok := f.Get(p, 5); !ok || v != 5 {
		t.Fatalf("Get(5) = %d, %t; want 5, true", v, ok)
	}
	if st.FingerMisses != 1 {
		t.Fatalf("misses = %d, want exactly 1 (the backward jump)", st.FingerMisses)
	}
}

// TestSkipFingerSurvivesDeletionParkedBeforeUnlink is the skip-list twin
// of the parked-deleter schedule: the deleter stalls before the root
// node's physical unlink, and a finger whose remembered tower is that
// root must recover via the root's backlink on level 1.
func TestSkipFingerSurvivesDeletionParkedBeforeUnlink(t *testing.T) {
	l := rigged(allHeight(1)) // the deleter parks at exactly one physical-deletion C&S
	for i := 0; i < 32; i++ {
		l.Insert(nil, i, i)
	}
	f := l.NewFinger()
	if _, ok := f.Get(nil, 10); !ok {
		t.Fatal("Get(10) failed")
	}

	c := NewController()
	c.PauseAt(1, core.PtBeforePhysicalCAS)
	deleter := &core.Proc{ID: 1, Hooks: c.HooksFor()}
	res := make(chan bool, 1)
	go func() {
		_, ok := l.Delete(deleter, 10)
		res <- ok
	}()
	c.AwaitParked(1, core.PtBeforePhysicalCAS)

	st := &core.OpStats{}
	v, ok := f.Get(&core.Proc{Stats: st}, 12)
	if !ok || v != 12 {
		t.Fatalf("Get(12) = %d, %t; want 12, true", v, ok)
	}
	if st.FingerMisses != 0 {
		t.Fatalf("finger fell back to the head tower (%d misses)", st.FingerMisses)
	}
	if st.BacklinkTraversals == 0 {
		t.Fatal("finger did not traverse the marked root's backlink")
	}

	c.ClearAllPauses()
	c.Release(1)
	if !<-res {
		t.Fatal("stalled deleter did not report success")
	}
	if _, ok := l.Get(nil, 10); ok {
		t.Fatal("key 10 still present")
	}
	if err := l.CheckStructure(); err != nil {
		t.Fatal(err)
	}
}

// TestSkipFingerSurvivesFullDeletion deletes the remembered tower
// completely (random heights, so the sweep also runs) and checks the next
// finger operation recovers without a head-tower fallback.
func TestSkipFingerSurvivesFullDeletion(t *testing.T) {
	l := core.NewSkipList[int, int]()
	for i := 0; i < 64; i++ {
		l.Insert(nil, i, i)
	}
	f := l.NewFinger()
	for k := 10; k <= 20; k++ {
		if _, ok := f.Get(nil, k); !ok {
			t.Fatalf("Get(%d) failed", k)
		}
	}
	for k := 10; k <= 20; k++ {
		if _, ok := l.Delete(nil, k); !ok {
			t.Fatalf("Delete(%d) failed", k)
		}
	}
	st := &core.OpStats{}
	v, ok := f.Get(&core.Proc{Stats: st}, 25)
	if !ok || v != 25 {
		t.Fatalf("Get(25) = %d, %t; want 25, true", v, ok)
	}
	if st.FingerMisses != 0 {
		t.Fatalf("finger fell back to the head tower (%d misses)", st.FingerMisses)
	}
	if err := l.CheckStructure(); err != nil {
		t.Fatal(err)
	}
}

// TestSkipFingerClimbRecoversDeletedStop fully deletes - every level
// flagged, marked and unlinked - the very node a resumed search is about
// to start from, between two elements of a sorted run. The heights are
// rigged into a perfect skip list (key k's tower has 1 + trailing-zeros(k)
// levels), so the remembered tower after Get(17) is 17, 16, 16, 16, 16 on
// levels 1..5 and the search for 23 climbs past levels 1-3 (their
// brackets end at 18, 18 and 20) to resume from 16 on level 4, whose
// bracket [16, 24) holds 23. With 16 gone, recovery must walk that
// node's backlink to 8 and resume from there - a finger hit, not a
// restart from the head tower.
func TestSkipFingerClimbRecoversDeletedStop(t *testing.T) {
	l := rigged(perfect)
	for k := 1; k < 64; k++ {
		l.Insert(nil, k, k)
	}
	if lv4 := l.LevelSnapshot(4); len(lv4) < 3 || lv4[1].Key != 8 || lv4[2].Key != 16 {
		t.Fatalf("level 4 is %v, want head, 8, 16, ...: the heights are not the rigged ones", lv4)
	}

	f := l.NewFinger()
	if _, ok := f.Get(nil, 17); !ok {
		t.Fatal("Get(17) failed")
	}
	if _, ok := l.Delete(nil, 16); !ok {
		t.Fatal("Delete(16) failed")
	}
	st := &core.OpStats{}
	v, ok := f.Get(&core.Proc{Stats: st}, 23)
	if !ok || v != 23 {
		t.Fatalf("Get(23) = %d, %t; want 23, true", v, ok)
	}
	if st.FingerHits != 1 || st.FingerMisses != 0 {
		t.Fatalf("hits/misses = %d/%d, want 1/0 (backlink recovery, not a head-tower restart)",
			st.FingerHits, st.FingerMisses)
	}
	if st.BacklinkTraversals != 1 {
		t.Fatalf("recovery walked %d backlinks, want exactly 1: level 4's 16 -> 8", st.BacklinkTraversals)
	}
	// From 8 on level 4: no hop there, 12 and 20 on level 3, 22 on level
	// 2, 23 on level 1.
	if st.CurrUpdates != 4 {
		t.Fatalf("resumed search advanced %d times, want 4", st.CurrUpdates)
	}
	if err := l.CheckStructure(); err != nil {
		t.Fatal(err)
	}
}
