package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"time"
)

// ladder_wire.go replays a fixed stretch of a wire stream, one connection,
// bursts of the workload's depth, through an in-process server assembled
// one layer at a time: ServeConn over a net.Pipe around a traced store,
// then a loopback listener, then (for the durable workload) an async WAL,
// then request observability.

// wireRungOps is the length of one wire rung: the ladder's 204 800 ops at
// depth 16, and 32 768 at depth 1, where an op is a full round trip of
// ~80 us and seven rungs have to fit the run's time cap.
func wireRungOps(depth int) int {
	if depth == 1 {
		return 32 * chunkOps
	}
	return ladderOps
}

// wireReplay sends n ops of the stream in bursts of depth, checks every
// reply against the model (unless m is nil), and records one span per chunk
// under parent.
// onChunk, when set, is told each chunk span's id before the chunk runs.
func wireReplay(rc *respConn, g *opGen, m *keyModel, depth, n int, tr *tracer, name string, parent int, onChunk func(id int)) (ns int64, failed uint64, err error) {
	burst := make([]op, depth)
	start := time.Now()
	for lo := 0; lo < n; lo += chunkOps {
		id := tr.begin(name, parent)
		if onChunk != nil {
			onChunk(id)
		}
		for sent := 0; sent < chunkOps; sent += depth {
			for i := range burst {
				burst[i] = g.next()
				rc.appendOp(burst[i])
			}
			if err := rc.flush(); err != nil {
				return 0, failed, err
			}
			for _, o := range burst {
				rp, err := rc.readReply()
				if err != nil {
					return 0, failed, err
				}
				if m != nil && !m.check(o, rp) {
					failed++
				}
			}
		}
		tr.end(id)
	}
	return int64(time.Since(start)), failed, nil
}

// lineReplay is wireReplay in the line dialect, unchecked: it only counts
// reply lines. (No value holds a newline; RANGE is not in the wire mixes.)
func lineReplay(c io.ReadWriter, g *opGen, m *keyModel, depth, n int) (int64, error) {
	var out []byte
	in := make([]byte, 64<<10)
	start := time.Now()
	for sent := 0; sent < n; sent += depth {
		out = out[:0]
		for i := 0; i < depth; i++ {
			o := g.next()
			switch o.kind {
			case opGet:
				out = append(out, "GET "...)
				out = strconv.AppendInt(out, int64(o.key), 10)
			case opInsert:
				out = append(out, "SET "...)
				out = strconv.AppendInt(out, int64(o.key), 10)
				var v [valueLen]byte
				valueBytes(o.key, &v)
				out = append(append(out, ' '), v[:]...)
			case opDelete:
				out = append(out, "DEL "...)
				out = strconv.AppendInt(out, int64(o.key), 10)
			}
			out = append(out, '\n')
			m.apply(o) // the later rungs check against the model
		}
		if _, err := c.Write(out); err != nil {
			return 0, err
		}
		for lines := 0; lines < depth; {
			k, err := c.Read(in)
			if err != nil {
				return 0, err
			}
			for _, b := range in[:k] {
				if b == '\n' {
					lines++
				}
			}
		}
	}
	return int64(time.Since(start)), nil
}

// wireLadder is the traced run of a wire workload: name's untraced run,
// briefly, then the rungs at the workload's depth and mix; durable adds the
// wal and obs rungs and the direct wal and snapshot measurements.
func wireLadder(e env, name string, depth int, m mix, durable bool, seed uint64, short sizing) (result, error) {
	e2e, err := runUntraced(e, name, seed, short)
	if err != nil {
		return result{}, err
	}
	res := e2e // the untraced part's layer metrics ride along; main keeps the per-layer names
	failed := uint64(0)
	suffix := ".d" + strconv.Itoa(depth)
	n := wireRungOps(depth)

	// The in-process server should see the processors the child sees; one
	// more P hosts the client thread while it blocks in read(2).
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(runtime.NumCPU() + 1))

	store := newLibStore()
	prefillLib(store, newPrefillOrder(streamSeed(seed, name, -1), keySpace))
	g := newWireGen(seed, name+"/ladder", 0, 1, m)
	model := newKeyModel(1, 0, true)
	tr := newTracer(1 << 19)
	root := tr.begin(name, -1)

	// server: ServeConn on a net.Pipe around the traced store.
	ts := &tracedStore{s: store, tr: tr}
	rig := newServerRig(ts)
	pipe, stop := rig.servePipe()
	rc := newRespConn(pipe)
	quiet := &tracer{off: true}
	if _, _, err := wireReplay(rc, g, model, depth, 8*chunkOps, quiet, "", -1, nil); err != nil {
		stop()
		return result{}, fmt.Errorf("server rung warm-up: %w", err)
	}
	ts.calls.Store(0)
	ts.items.Store(0)
	ts.ns.Store(0)
	pipeNs, f, err := wireReplay(rc, g, model, depth, n, tr, "server", root, func(id int) { ts.parent.Store(int64(id)) })
	stop()
	if err != nil {
		return result{}, fmt.Errorf("server rung: %w", err)
	}
	failed += f
	storeNs, calls, items := ts.ns.Load(), ts.calls.Load(), ts.items.Load()
	res.set("server.store_calls_per_op"+suffix, float64(calls)/float64(n), "calls/op")
	if depth > 1 {
		res.set("server.batch_mean"+suffix, float64(items)/float64(max(calls, 1)), "ops/call")
	}

	// The server's own allocations: the same stream against a store that
	// allocates nothing, after a warm-up that sizes the connection's buffers.
	rig.store = nullStore{value: valueOf(0)}
	pipe, stop = rig.servePipe()
	rc = newRespConn(pipe)
	const allocOps = 16 * chunkOps
	ng := newWireGen(seed, name+"/allocs", 0, 1, m)
	_, _, err = wireReplay(rc, ng, nil, depth, 8*chunkOps, quiet, "", -1, nil)
	mallocs := selfMallocs()
	if err == nil {
		_, _, err = wireReplay(rc, ng, nil, depth, allocOps, quiet, "", -1, nil)
	}
	allocs := selfMallocs() - mallocs
	stop()
	if err != nil {
		return result{}, fmt.Errorf("server allocation pass: %w", err)
	}
	res.set("server.allocs_per_op", float64(allocs)/allocOps, "allocs/op")

	// The same rung in the line dialect, untraced, on the bare store.
	rig.store = store
	pipe, stop = rig.servePipe()
	lineNs, err := lineReplay(pipe, g, model, depth, n)
	stop()
	if err != nil {
		return result{}, fmt.Errorf("line-dialect rung: %w", err)
	}

	rungs := []rung{
		{metric: "server.store_ns" + suffix, ns: storeNs, ops: n},
		{metric: "server.self_ns" + suffix, ns: pipeNs, ops: n},
	}
	// tcp, then wal and obs for the durable workload: each rung adds its
	// layer to the rig and replays the next stretch over loopback TCP.
	tcpRung := func(layer string, t *tracer) (int64, error) {
		runtime.LockOSThread() // the client blocks in read(2) on its own thread
		defer runtime.UnlockOSThread()
		addr, stop, err := rig.serveTCP()
		if err != nil {
			return 0, err
		}
		defer stop()
		rc, err := dialResp(addr)
		if err != nil {
			return 0, err
		}
		defer rc.close()
		ns, f, err := wireReplay(rc, g, model, depth, n, t, layer, root, nil)
		failed += f
		return ns, err
	}
	tcpNs, err := tcpRung("tcp", tr)
	if err != nil {
		return result{}, fmt.Errorf("tcp rung: %w", err)
	}
	rungs = append(rungs, rung{metric: "tcp.self_ns" + suffix, ns: tcpNs, ops: n})
	res.set("server.line_minus_resp_ns", float64(lineNs-pipeNs)/float64(n), "ns")

	if durable {
		dir, err := tempDir(e, "ladder-")
		if err != nil {
			return result{}, err
		}
		defer os.RemoveAll(dir)
		log, err := rig.withWAL(dir)
		if err != nil {
			return result{}, fmt.Errorf("wal rung: %w", err)
		}
		defer log.Close()
		walNs, err := tcpRung("wal", tr)
		if err != nil {
			return result{}, fmt.Errorf("wal rung: %w", err)
		}
		obs := rig.withObs()
		obsNs, err := tcpRung("obs", tr)
		if err != nil {
			return result{}, fmt.Errorf("obs rung: %w", err)
		}
		res.set("server.queue_wait_p50_us", queueWaitP50Us(obs), "us")
		rungs = append(rungs,
			rung{metric: "wal.async_self_ns" + suffix, ns: walNs, ops: n},
			rung{metric: "obs.self_ns" + suffix, ns: obsNs, ops: n})
		if err := walDirect(dir, &res); err != nil {
			return result{}, fmt.Errorf("wal direct: %w", err)
		}
		if err := snapshotDirect(dir, store, &res); err != nil {
			return result{}, fmt.Errorf("snapshot direct: %w", err)
		}
	}
	topUntraced, err := tcpRung("", quiet)
	if err != nil {
		return result{}, fmt.Errorf("untraced top rung: %w", err)
	}
	tr.end(root)

	// The untraced end-to-end figure per op, as one client sees it: the
	// closed loop's per-connection op time, or the open loop's median at r1.
	untraced := 1e9 * float64(clients()) / max(e2e.get("throughput_ops_s"), 1)
	if durable {
		untraced = e2e.get("open.r1.p50_us") * 1e3
	}
	ledger(&res, rungs, float64(topUntraced)/float64(n), untraced)
	if store.Len() != model.count() {
		failed++
		res.note("ladder: the store holds %d keys, the model %d", store.Len(), model.count())
	}
	path, err := tr.write(e.outdir, name)
	if err != nil {
		return result{}, fmt.Errorf("write trace: %w", err)
	}
	res.note("ladder: depth %d, rungs of %d ops; %d spans in %s", depth, n, len(tr.spans), path)
	res.Failed += failed
	res.Correct = res.Failed == 0
	return res, nil
}
