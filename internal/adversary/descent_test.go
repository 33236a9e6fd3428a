package adversary

import (
	"slices"
	"testing"

	"repro/internal/core"
)

// These schedules park a deleter half way through a deletion that lies on
// the search path of two of a batch's five keys, and run the batch's
// shared descent (core/descent.go) into it. The descent itself never
// writes: the two keys that would step onto the dying tower must leave it
// for the ordinary searchRight - which helps the deletion along - and the
// other three must not notice.
//
// How the tests tell: PtSearchDone fires once per round of the descent and
// once per level a searchRight traverses, and a round moves every key by
// one examined successor, so a batch takes the rounds of its slowest key.
// The three bystanders are chosen slower than the point where the other
// two leave. The batch must then fire exactly as often as the bystanders
// do as a batch of their own on an undisturbed list, plus once per level
// the two leavers still have below them.

// searchDones runs GetBatch over keys under a Proc that counts PtSearchDone
// and returns the count, the Proc's stats and the per-key results.
func searchDones(l *core.SkipList[int, int], pid int, keys []int) (fired int, st *core.OpStats, found []bool) {
	st = &core.OpStats{}
	p := &core.Proc{ID: pid, Stats: st, Hooks: core.HookFunc(func(pt core.Point, _ int) {
		if pt == core.PtSearchDone {
			fired++
		}
	})}
	found = make([]bool, len(keys))
	l.GetBatch(p, keys, make([]int, len(keys)), found)
	return fired, st, found
}

// TestDescentMeetsMarkedSuccessor: the deleter of key 13 is parked after
// its mark C&S, before the physical deletion - 12 flagged, 13 marked and
// still linked, all on level 1. Multiples of four are three levels high
// and every other key one, so the searches for 13 and 14 both walk
// 12 -> 13 on level 1, and nobody else's does.
func TestDescentMeetsMarkedSuccessor(t *testing.T) {
	build := func() *core.SkipList[int, int] {
		l := rigged(func(k int) int {
			if k%4 == 0 {
				return 3
			}
			return 1
		})
		for k := 1; k < 64; k++ {
			l.Insert(nil, k, k)
		}
		return l
	}
	l := build()
	if h12, h13 := l.Search(nil, 12).Height(), l.Search(nil, 13).Height(); h12 != 3 || h13 != 1 {
		t.Fatalf("towers 12 and 13 are %d and %d levels high, want 3 and 1", h12, h13)
	}
	bystanders, _, _ := searchDones(build(), 1, []int{41, 50, 59})

	c := NewController()
	c.PauseAt(2, core.PtBeforePhysicalCAS)
	deleted := make(chan bool, 1)
	go func() {
		_, ok := l.Delete(&core.Proc{ID: 2, Hooks: c.HooksFor()}, 13)
		deleted <- ok
	}()
	c.AwaitParked(2, core.PtBeforePhysicalCAS)

	fired, st, found := searchDones(l, 1, []int{13, 14, 41, 50, 59})
	if want := []bool{false, true, true, true, true}; !slices.Equal(found, want) {
		t.Fatalf("found = %v, want %v: 13 is marked, hence deleted", found, want)
	}
	if st.HelpCalls == 0 || st.CASSuccesses != 1 {
		t.Fatalf("the keys that left the descent did not finish the physical deletion: %+v", st)
	}
	// 13 and 14 leave from tower 12 on level 1: one searchRight each.
	if fired != bystanders+2 {
		t.Fatalf("PtSearchDone fired %d times, want the bystanders' %d rounds + 2: someone else left the shared descent", fired, bystanders)
	}

	c.Release(2)
	if !<-deleted {
		t.Fatal("the parked Delete(13) lost a deletion it had already marked")
	}
	if err := l.CheckStructure(); err != nil {
		t.Fatal(err)
	}
	if l.Search(nil, 13) != nil || l.Len() != 62 {
		t.Fatalf("after the schedule: 13 present = %t, Len = %d", l.Search(nil, 13) != nil, l.Len())
	}
}

// TestDescentMeetsSuperfluousTower: the deleter of key 20 has finished
// level 1 - root marked and unlinked - and is parked at the start of its
// sweep, with the tower still linked on levels 2 and 3. The heights are
// the perfect skip list's (1 + trailing zeros of the key), so the searches
// for 21 and 22 step onto 20 on level 3, coming from 16, and nobody
// else's does. Seen from there the tower is superfluous, not marked.
func TestDescentMeetsSuperfluousTower(t *testing.T) {
	build := func() *core.SkipList[int, int] {
		l := rigged(perfect)
		for k := 1; k < 64; k++ {
			l.Insert(nil, k, k)
		}
		return l
	}
	l := build()
	if h := l.Search(nil, 20).Height(); h != 3 {
		t.Fatalf("tower 20 is %d levels high, want 3", h)
	}
	bystanders, _, _ := searchDones(build(), 1, []int{3, 41, 59})

	c := NewController()
	c.PauseAt(2, core.PtBeforeFlagCAS)
	deleted := make(chan bool, 1)
	go func() {
		_, ok := l.Delete(&core.Proc{ID: 2, Hooks: c.HooksFor()}, 20)
		deleted <- ok
	}()
	c.AwaitParked(2, core.PtBeforeFlagCAS) // level 1's flag
	c.Release(2)
	c.AwaitParked(2, core.PtBeforeFlagCAS) // the sweep's first flag, on level 3
	if top := l.LevelSnapshot(3); !hasKey(top, 20) || hasKey(l.LevelSnapshot(1), 20) {
		t.Fatalf("want 20 off level 1 and still on level 3, level 3 is %v", top)
	}

	fired, st, found := searchDones(l, 1, []int{3, 21, 22, 41, 59})
	if want := []bool{true, true, true, true, true}; !slices.Equal(found, want) {
		t.Fatalf("found = %v, want %v", found, want)
	}
	// Two levels of the tower to remove, three C&S each.
	if st.HelpCalls == 0 || st.CASSuccesses != 6 {
		t.Fatalf("the keys that left the descent did not remove the superfluous tower: %+v", st)
	}
	if hasKey(l.LevelSnapshot(3), 20) || hasKey(l.LevelSnapshot(2), 20) {
		t.Fatal("tower 20 is still linked above level 1")
	}
	// 21 and 22 leave from tower 16 on level 3: three searchRights each.
	if fired != bystanders+6 {
		t.Fatalf("PtSearchDone fired %d times, want the bystanders' %d rounds + 6: someone else left the shared descent", fired, bystanders)
	}

	c.ClearAllPauses()
	c.Release(2)
	if !<-deleted {
		t.Fatal("the parked Delete(20) reported failure after marking the root")
	}
	if err := l.CheckStructure(); err != nil {
		t.Fatal(err)
	}
}

// hasKey reports whether a level snapshot holds key k.
func hasKey(level []core.NodeState[int], k int) bool {
	for _, n := range level {
		if n.Sentinel == "" && n.Key == k {
			return true
		}
	}
	return false
}
