package main

import "repro/lockfree"

// ladder_lockfree.go drives the public facade: the *Proc methods of
// ShardedSkipList for the traced rung, and the plain methods (what the
// end-to-end workloads call) for the untraced figure.

type facadeTarget struct {
	s     *libStore
	p     *lockfree.Proc
	plain bool // call the plain methods, carrying no Proc
}

func newFacadeTarget(opts ...lockfree.Option) *facadeTarget {
	return &facadeTarget{s: newLibStore(opts...), p: newProc()}
}

func (t *facadeTarget) get(k int) (string, bool) {
	if t.plain {
		return t.s.Get(k)
	}
	return t.s.GetProc(t.p, k)
}
func (t *facadeTarget) insert(k int, v string) bool {
	if t.plain {
		return t.s.Insert(k, v)
	}
	return t.s.InsertProc(t.p, k, v)
}
func (t *facadeTarget) delete(k int) bool {
	if t.plain {
		return t.s.Delete(k)
	}
	return t.s.DeleteProc(t.p, k)
}

// The facade has no Proc-carrying range scan.
func (t *facadeTarget) scan(from int, fn func(int, string) bool) {
	t.s.AscendRange(from, keySpace, fn)
}
func (t *facadeTarget) getBatch(keys []int, vals []string, found []bool) int {
	if t.plain {
		return t.s.GetBatch(keys, vals, found)
	}
	return t.s.GetBatchProc(t.p, keys, vals, found)
}
func (t *facadeTarget) counts() opCounts { return countsOf(t.p) }
func (t *facadeTarget) resetCounts()     { t.p.Stats.Reset() }
