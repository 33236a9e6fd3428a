package main

import "repro/lockfree"

// ladder_ebr.go measures epoch-based node recycling through the facade:
// lockfree.WithRecycling, RecycleCounts and ForceReclaim. Recycling is off
// by default, so this rung predicts no end-to-end change today; it is the
// row ROADMAP item 1a is decided on.

// ebrRung replays the churn prefix on a recycling store and on a plain one
// and reports the difference.
func ebrRung(order prefillOrder, p libPrefix, tr *tracer, root int, res *result) uint64 {
	plain := newFacadeTarget()
	plainRung, f1 := libRung("", plain, order, p, &tracer{off: true}, -1)

	rec := newFacadeTarget(lockfree.WithRecycling())
	mallocs := selfMallocs()
	recRung, f2 := libRung("ebr.rung", rec, order, p, tr, root)
	allocs := selfMallocs() - mallocs
	rec.s.ForceReclaim()
	recycled, dropped := rec.s.RecycleCounts()
	c := rec.counts()

	res.set("ebr.churn_ns_delta", recRung.nsPerOp()-plainRung.nsPerOp(), "ns")
	// The prefill's value strings and the warm-up are inside the count;
	// they are the same on every run and small beside 200k ops.
	res.set("ebr.allocs_per_op", float64(allocs)/float64(order.len()+ladderWarmOps+ladderOps), "allocs/op")
	res.set("ebr.recycled_ratio", float64(recycled)/float64(max(recycled+dropped, 1)), "ratio")
	res.set("ebr.stalled_epochs_per_mop", float64(c.stalledEpochs)*1e6/float64(ladderOps), "1/Mop")
	return f1 + f2
}
