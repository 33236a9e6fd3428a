package main

import (
	"repro/internal/core"
	"repro/internal/sharded"
	"repro/lockfree"
)

// ladder_sharded.go is the ladder's only contact with internal/sharded:
// sharded.New and the Map's Get/Insert/Delete/AscendRange/GetBatch.

type shardedTarget struct {
	m *sharded.Map[int, string]
	p *core.Proc
}

func newShardedTarget() *shardedTarget {
	return &shardedTarget{
		m: sharded.New[int, string](lockfree.EqualSplitters(0, keySpace, storeShards)),
		p: newProc(),
	}
}

func (t *shardedTarget) get(k int) (string, bool) { return t.m.Get(t.p, k) }
func (t *shardedTarget) insert(k int, v string) bool {
	_, ok := t.m.Insert(t.p, k, v)
	return ok
}
func (t *shardedTarget) delete(k int) bool {
	_, ok := t.m.Delete(t.p, k)
	return ok
}
func (t *shardedTarget) scan(from int, fn func(int, string) bool) {
	t.m.AscendRange(t.p, from, keySpace, fn)
}
func (t *shardedTarget) getBatch(keys []int, vals []string, found []bool) int {
	return t.m.GetBatch(t.p, keys, vals, found)
}
func (t *shardedTarget) counts() opCounts { return countsOf(t.p) }
func (t *shardedTarget) resetCounts()     { t.p.Stats.Reset() }
