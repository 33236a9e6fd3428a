package core

import (
	"strings"
	"testing"
)

func TestSnapshotCleanList(t *testing.T) {
	l := NewList[string, int]()
	l.Insert(nil, "A", 1)
	l.Insert(nil, "B", 2)
	states := l.Snapshot()
	if len(states) != 4 { // head, A, B, tail
		t.Fatalf("snapshot has %d entries", len(states))
	}
	if states[0].Sentinel != "head" || states[3].Sentinel != "tail" {
		t.Fatalf("sentinels misplaced: %+v", states)
	}
	for _, st := range states {
		if st.Marked || st.Flagged || st.BacklinkSet {
			t.Fatalf("clean list shows deletion state: %+v", st)
		}
	}
	out := RenderState(states)
	if out != "[head] -> [A] -> [B] -> [tail]" {
		t.Fatalf("render = %q", out)
	}
}

func TestSnapshotMidDeletion(t *testing.T) {
	l := NewList[string, int]()
	l.Insert(nil, "A", 1)
	l.Insert(nil, "B", 2)
	g := newGate(PtBeforePhysicalCAS)
	done := make(chan struct{})
	go func() {
		l.Delete(&Proc{ID: 1, Hooks: g}, "B")
		close(done)
	}()
	<-g.arrived
	out := RenderState(l.Snapshot())
	// A flagged, B marked with backlink - the Figure 2 step-2 state.
	if !strings.Contains(out, "[A]*") || !strings.Contains(out, "[B]X~") {
		t.Fatalf("mid-deletion render = %q", out)
	}
	close(g.release)
	<-done
	out = RenderState(l.Snapshot())
	if strings.Contains(out, "B") || strings.Contains(out, "*") {
		t.Fatalf("post-deletion render = %q", out)
	}
}

func TestLevelSnapshot(t *testing.T) {
	l := rigged(func(k int) int { return 2 - k%2 }) // alternating heights 1, 2
	for k := 1; k <= 4; k++ {
		l.Insert(nil, k, k)
	}
	lv1 := l.LevelSnapshot(1)
	if len(lv1) != 6 { // head, 1..4, tail
		t.Fatalf("level 1 snapshot: %d entries", len(lv1))
	}
	lv2 := l.LevelSnapshot(2)
	if len(lv2) != 4 { // head, 2, 4, tail
		t.Fatalf("level 2 snapshot: %d entries (%s)", len(lv2), RenderState(lv2))
	}
	if out := RenderState(lv2); out != "[head] -> [2] -> [4] -> [tail]" {
		t.Fatalf("level 2 render = %q", out)
	}
}
