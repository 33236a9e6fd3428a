package main

import "repro/internal/core"

// ladder_core.go is the ladder's only contact with internal/core: NewSkipList,
// Get/Insert/Delete/AscendRange/GetBatch with a Proc carrying OpStats.

type coreTarget struct {
	l *core.SkipList[int, string]
	p *core.Proc
}

func newCoreTarget() *coreTarget {
	return &coreTarget{l: core.NewSkipList[int, string](), p: newProc()}
}

// sharing returns a target on the same list with its own Proc, for a
// second goroutine.
func (t *coreTarget) sharing() *coreTarget { return &coreTarget{l: t.l, p: newProc()} }

func newProc() *core.Proc { return &core.Proc{Stats: &core.OpStats{}} }

func (t *coreTarget) get(k int) (string, bool) { return t.l.Get(t.p, k) }
func (t *coreTarget) insert(k int, v string) bool {
	_, ok := t.l.Insert(t.p, k, v)
	return ok
}
func (t *coreTarget) delete(k int) bool {
	_, ok := t.l.Delete(t.p, k)
	return ok
}
func (t *coreTarget) scan(from int, fn func(int, string) bool) {
	t.l.AscendRange(t.p, from, keySpace, fn)
}
func (t *coreTarget) getBatch(keys []int, vals []string, found []bool) int {
	return t.l.GetBatch(t.p, keys, vals, found)
}
func (t *coreTarget) counts() opCounts { return countsOf(t.p) }
func (t *coreTarget) resetCounts()     { t.p.Stats.Reset() }

// countsOf copies the step counters the ledger reads out of a Proc.
func countsOf(p *core.Proc) opCounts {
	s := p.Stats
	return opCounts{
		essentialSteps: s.EssentialSteps(),
		casAttempts:    s.CASAttempts,
		casSuccesses:   s.CASSuccesses,
		backlinks:      s.BacklinkTraversals,
		helps:          s.HelpCalls,
		fingerHits:     s.FingerHits,
		fingerMisses:   s.FingerMisses,
		recycled:       s.NodesRecycled,
		freelistHits:   s.FreelistHits,
		freelistMisses: s.FreelistMisses,
		stalledEpochs:  s.StalledEpochs,
	}
}
