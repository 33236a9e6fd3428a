package core

import (
	"math/rand/v2"
	"slices"
	"testing"
)

// These tests pin the cost of resuming from a SkipFinger in the paper's
// own currency - essential steps - on a structure whose shape is fixed by
// the default seed of the tower heights, so every count below repeats
// exactly. The rule
// they guard: a remembered position pays only if resuming from it is
// cheaper than the search it replaces, at every gap size.

const fingerStepKeys = 1 << 17

// seededSkipList returns a skip list holding keys 0..n-1 (value = key)
// whose tower heights are the default seed's hash of the key.
func seededSkipList(n int) *SkipList[int, int] {
	l := NewSkipList[int, int]()
	for k := 0; k < n; k++ {
		l.Insert(nil, k, k)
	}
	return l
}

// batchVsPointSteps runs the same batches once through GetBatch and once
// key by key through Get, and returns the essential steps each paid.
func batchVsPointSteps(t *testing.T, l *SkipList[int, int], batches [][]int) (batch, point uint64) {
	t.Helper()
	bst, pst := &OpStats{}, &OpStats{}
	bp, pp := &Proc{Stats: bst}, &Proc{Stats: pst}
	for _, keys := range batches {
		for _, k := range keys {
			if v, ok := l.Get(pp, k); !ok || v != k {
				t.Fatalf("Get(%d) = %d, %t", k, v, ok)
			}
		}
		if n := l.GetBatch(bp, keys, nil, nil); n != len(keys) {
			t.Fatalf("GetBatch found %d of %d keys", n, len(keys))
		}
	}
	return bst.EssentialSteps(), pst.EssentialSteps()
}

// TestFingerStepsUniformBatch: 64 keys drawn uniformly from 2^17 sit
// ~2^11 apart, far beyond any constant probe. Resuming from the lowest
// bracketing level must cost no more than the from-head searches.
func TestFingerStepsUniformBatch(t *testing.T) {
	l := seededSkipList(fingerStepKeys)
	rng := rand.New(rand.NewPCG(1, 1))
	batches := make([][]int, 16)
	for i := range batches {
		batches[i] = make([]int, 64)
		for j := range batches[i] {
			batches[i][j] = rng.IntN(fingerStepKeys)
		}
	}
	batch, point := batchVsPointSteps(t, l, batches)
	t.Logf("uniform 64-key batches: %d steps batched, %d point (%.0f%%)", batch, point, 100*float64(batch)/float64(point))
	if batch > point {
		t.Fatalf("uniform GetBatch paid %d essential steps, the same keys through Get %d: the batch must not lose", batch, point)
	}
}

// TestFingerStepsClusteredBatch: at a mean gap of ~16 keys the climb stops
// after ~4 levels, so a batch must pay well under the point searches.
func TestFingerStepsClusteredBatch(t *testing.T) {
	l := seededSkipList(fingerStepKeys)
	rng := rand.New(rand.NewPCG(2, 2))
	const window = 1024 // 64 keys per window: mean sorted gap just under 16
	batches := make([][]int, 16)
	for i := range batches {
		base := rng.IntN(fingerStepKeys - window)
		batches[i] = make([]int, 64)
		for j := range batches[i] {
			batches[i][j] = base + rng.IntN(window)
		}
	}
	batch, point := batchVsPointSteps(t, l, batches)
	t.Logf("clustered 64-key batches: %d steps batched, %d point (%.0f%%)", batch, point, 100*float64(batch)/float64(point))
	if 10*batch > 6*point {
		t.Fatalf("clustered GetBatch paid %d essential steps, more than 60%% of the %d the point searches pay", batch, point)
	}
}

// lowestBracketingLevel computes, by walking each level from its head,
// the lowest level >= 1 on which no node's key lies strictly between from
// and to: the level on which from's predecessor also brackets to.
func lowestBracketingLevel(l *SkipList[int, int], from, to int) int {
	for lv := 1; ; lv++ {
		n := l.head.cell(lv).right()
		for n.kind != kindTail && n.key <= from {
			n = n.cell(lv).right()
		}
		if n.kind == kindTail || n.key >= to {
			return lv
		}
	}
}

// TestFingerStartLowestBracketingLevel: after a search for k0, start must
// resume a search for k0+gap on the LOWEST level whose remembered
// predecessor brackets the new key, from that predecessor - for adjacent
// keys and for gaps far beyond any constant probe alike.
func TestFingerStartLowestBracketingLevel(t *testing.T) {
	l := seededSkipList(fingerStepKeys)
	for _, k0 := range []int{0, 4097, 70001, 100000} {
		for _, gap := range []int{1, 9, 100, 10000} {
			f := l.NewFinger()
			if _, ok := f.Get(nil, k0); !ok {
				t.Fatalf("Get(%d) failed", k0)
			}
			k := k0 + gap
			st := &OpStats{}
			p := &Proc{Stats: st}
			n, lv := f.start(p, k, 1, false)
			f.report(p) // start counts into the record; a finger op reports it
			want := min(lowestBracketingLevel(l, k0, k), f.top)
			if lv != want {
				t.Errorf("k0=%d gap=%d: start resumed on level %d, lowest bracketing level is %d", k0, gap, lv, want)
				continue
			}
			if n != f.prevs[lv-1] || n.Height() < lv {
				t.Errorf("k0=%d gap=%d: start node is not the level-%d remembered predecessor", k0, gap, lv)
				continue
			}
			if r := n.cell(lv).right(); !l.nodeLeq(n, k, lv > 1) || (lv < f.top && l.nodeLeq(r, k, true)) {
				t.Errorf("k0=%d gap=%d: level-%d start [%v, %v) does not bracket %d", k0, gap, lv, n.key, r.key, k)
			}
			if st.FingerHits != 1 || st.FingerMisses != 0 {
				t.Errorf("k0=%d gap=%d: hits/misses = %d/%d, want 1/0", k0, gap, st.FingerHits, st.FingerMisses)
			}
			// The climb consults remembered keys only: no shared successor
			// field is read until the descent starts.
			if got := st.EssentialSteps(); got != 0 {
				t.Errorf("k0=%d gap=%d: climb to level %d cost %d essential steps, want 0", k0, gap, lv, got)
			}
		}
	}
}

// TestFingerBackwardStaysLocal: a key just below the finger is not below
// the remembered predecessors a few levels up, so the climb skips the
// levels that overshoot and still resumes locally instead of from the head.
func TestFingerBackwardStaysLocal(t *testing.T) {
	l := seededSkipList(fingerStepKeys)
	f := l.NewFinger()
	if _, ok := f.Get(nil, 90000); !ok {
		t.Fatal("Get(90000) failed")
	}
	st := &OpStats{}
	if v, ok := f.Get(&Proc{Stats: st}, 89990); !ok || v != 89990 {
		t.Fatalf("Get(89990) = %d, %t", v, ok)
	}
	if st.FingerHits != 1 || st.FingerMisses != 0 {
		t.Fatalf("hits/misses = %d/%d, want 1/0", st.FingerHits, st.FingerMisses)
	}
	pst := &OpStats{}
	l.Get(&Proc{Stats: pst}, 89990)
	if st.EssentialSteps() >= pst.EssentialSteps() {
		t.Fatalf("a 10-key backward move cost %d steps through the finger, %d from the head", st.EssentialSteps(), pst.EssentialSteps())
	}
}

// TestFingerBatchSortedPositions: GetBatch's positional contract survives
// the climb on sparse, uneven keys (absent keys, duplicates, both ends).
func TestFingerBatchSortedPositions(t *testing.T) {
	l := NewSkipList[int, int]()
	for k := 0; k < 4096; k += 3 {
		l.Insert(nil, k, k)
	}
	keys := []int{4095, 0, 1, 3, 3, 2999, 3000, 7, 4094, 1500, 1501, 1502, 6}
	vals := make([]int, len(keys))
	found := make([]bool, len(keys))
	l.GetBatch(nil, keys, vals, found)
	if !slices.IsSorted(keys) {
		t.Fatal("GetBatch did not sort its keys")
	}
	for i, k := range keys {
		if want := k%3 == 0; found[i] != want || (want && vals[i] != k) {
			t.Fatalf("position %d key %d: found=%t val=%d", i, k, found[i], vals[i])
		}
	}
}
