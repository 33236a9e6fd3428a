package main

import (
	"fmt"
	"slices"
)

// ladder.go is the traced run. For one workload it measures a short
// untraced run (a third of the seconds, one set-up), then replays a fixed
// seeded prefix of the workload's stream through each layer boundary in
// turn, one goroutine, one span per chunk. A layer's self time is its rung
// minus the rung below; the rungs telescope to the top rung, and
// ledger.residual_frac is what separates the top rung from the untraced
// figure.

func runLadder(e env, name string, seed uint64, seconds float64) (result, error) {
	short := sizing{seconds: seconds / 3, setupReps: 1}
	switch name {
	case "lib_read":
		return libLadder(e, libRead, seed, short)
	case "lib_churn":
		return libLadder(e, libChurn, seed, short)
	case "wire_pipe16":
		return wireLadder(e, name, 16, wireMix, false, seed, short)
	case "wire_open_durable":
		return wireLadder(e, name, 1, openMix, true, seed, short)
	}
	return result{}, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// ledger publishes each rung's self time under the rung's name and the
// bookkeeping metrics. topUntracedNs is the top rung replayed without span
// recording, untracedNs the end-to-end figure, both per op.
func ledger(res *result, rungs []rung, topUntracedNs, untracedNs float64) {
	self := selfTimes(rungs)
	var sum int64
	for i, r := range rungs {
		sum += self[i]
		res.set(r.metric, float64(self[i])/float64(r.ops), "ns")
	}
	top := rungs[len(rungs)-1]
	if sum != top.ns {
		panic("ledger: self times do not telescope to the top rung") // arithmetic, not measurement
	}
	res.set("ledger.top_rung_ns", top.nsPerOp(), "ns")
	res.set("trace.overhead_frac", (top.nsPerOp()-topUntracedNs)/topUntracedNs, "fraction")
	res.set("ledger.residual_frac", (untracedNs-top.nsPerOp())/untracedNs, "fraction")
}

func libLadder(e env, w libWorkload, seed uint64, short sizing) (result, error) {
	// The untraced part: the workload itself, briefly.
	res, err := runLib(w, seed, short)
	if err != nil {
		return result{}, err
	}

	order := newPrefillOrder(streamSeed(seed, w.name, -1), w.keys)
	g := newOpGen(streamSeed(seed, w.name, 0), w.keys, w.m)
	// Three stretches of the stream: the rungs replay the first; the top
	// rung is replayed again without spans on the second and through the
	// plain methods on the third.
	span := ladderWarmOps + ladderOps
	p := newLibPrefix(g, span+2*ladderOps)
	tr := newTracer(8 * ladderOps / chunkOps)
	root := tr.begin(w.name, -1)
	var failed uint64

	coreT := newCoreTarget()
	coreRung, f := libRung("core.self_ns", coreT, order, p, tr, root)
	failed += f
	c := coreT.counts()
	res.set("core.steps_per_op", float64(c.essentialSteps)/ladderOps, "steps/op")
	res.set("core.cas_per_op", float64(c.casAttempts)/ladderOps, "cas/op")

	shardedT := newShardedTarget()
	shardedRung, f := libRung("sharded.self_ns", shardedT, order, p, tr, root)
	failed += f

	facadeT := newFacadeTarget()
	facadeRung, f := libRung("lockfree.self_ns", facadeT, order, p, tr, root)
	failed += f
	lat := newLatBuf(1, ladderOps/latEvery+1)
	quiet := &tracer{off: true}
	topUntraced, f := replayLib(facadeT, p.slice(span, span+ladderOps), quiet, "", -1, lat)
	failed += f
	slices.Sort(lat.win[0])
	if p99, ok := percentile(lat.win[0], 0.99); ok {
		res.set("lockfree.op_p99_ns", p99, "ns")
	}
	facadeT.plain = true
	plainNs, f := replayLib(facadeT, p.slice(span+ladderOps, span+2*ladderOps), quiet, "", -1, nil)
	failed += f
	ledger(&res, []rung{coreRung, shardedRung, facadeRung}, float64(topUntraced)/ladderOps, float64(plainNs)/ladderOps)
	res.note("ladder: rungs of %d ops after %d warm-up ops; core %.0f ns, sharded %.0f ns, lockfree %.0f ns per op; plain methods %.0f ns",
		ladderOps, ladderWarmOps, coreRung.nsPerOp(), shardedRung.nsPerOp(), facadeRung.nsPerOp(), float64(plainNs)/ladderOps)

	// Single-verb costs on fresh prefilled structures, and the counters
	// only concurrency produces.
	verbT := newCoreTarget()
	prefillTarget(verbT, order)
	verbCosts(verbT, w.keys, streamSeed(seed, w.name, 100), &res, "core")
	// Batch routing needs no fresh structure: the sharded rung's will do.
	shardedBatch, _ := batchCost(shardedT, newOpGen(streamSeed(seed, w.name, 101), w.keys, mix{get: 100}), verbOps)
	res.set("sharded.batch_self_ns_per_key", shardedBatch-res.get("core.batch64_ns_per_key"), "ns")

	T := clients()
	targets, prefixes := make([]libTarget, T), make([]libPrefix, T)
	for i := range targets {
		t := coreT.sharing()
		targets[i] = t
		prefixes[i] = newLibPrefix(newOpGen(streamSeed(seed, w.name, 200+i), w.keys, w.m), ladderOps)
	}
	cc := contendedCounts(targets, prefixes)
	kops := float64(T*ladderOps) / 1e3
	res.set("core.cas_success_ratio", float64(cc.casSuccesses)/float64(max(cc.casAttempts, 1)), "ratio")
	res.set("core.backlinks_per_kop", float64(cc.backlinks)/kops, "1/kop")
	res.set("core.helps_per_kop", float64(cc.helps)/kops, "1/kop")

	if w.m.insert+w.m.delete == 100 { // the churn stream: the one recycling is for
		failed += ebrRung(order, p, tr, root, &res)
	}
	tr.end(root)
	path, err := tr.write(e.outdir, w.name)
	if err != nil {
		return result{}, fmt.Errorf("write trace: %w", err)
	}
	res.note("trace: %d spans in %s", len(tr.spans), path)
	res.Failed += failed
	res.Correct = res.Failed == 0
	return res, nil
}
