package main

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"
)

// wire.go holds what the two wire workloads share: bringing up an
// lflserver child with the prefill loaded, the closed-loop burst client,
// and the final-state checks.

const prefillBurst = 256 // SETs per write while prefilling

// wireSetup is a served, prefilled child with T open connections.
type wireSetup struct {
	srv       *child
	conns     []*respConn
	setupTime time.Duration // exec to first PING reply, plus prefill
	bootTime  time.Duration // exec to first PING reply
	rssGrowth uint64        // child RSS after prefill minus RSS before
}

func (ws *wireSetup) close() {
	for _, c := range ws.conns {
		c.close()
	}
	ws.srv.kill()
}

// bootServer execs lflserver and waits for its first PING reply on each of
// T fresh connections.
func bootServer(e env, T int, flags ...string) (*child, []*respConn, error) {
	srv, err := startServer(e, flags...)
	if err != nil {
		return nil, nil, err
	}
	conns := make([]*respConn, 0, T)
	fail := func(err error) (*child, []*respConn, error) {
		for _, c := range conns {
			c.close()
		}
		srv.kill()
		return nil, nil, err
	}
	for i := 0; i < T; i++ {
		c, err := dialResp(srv.addr)
		if err != nil {
			return fail(err)
		}
		conns = append(conns, c)
		if rp, err := c.roundTrip("PING"); err != nil || rp.kind != '+' {
			return fail(fmt.Errorf("PING: reply %q, error %v", rp.kind, err))
		}
	}
	return srv, conns, nil
}

// setupWire boots a child and sends the prefill over the wire, connection c
// taking every T-th key of the order.
func setupWire(e env, T int, order prefillOrder, flags ...string) (*wireSetup, error) {
	srv, conns, err := bootServer(e, T, flags...)
	if err != nil {
		return nil, err
	}
	ws := &wireSetup{srv: srv, conns: conns, bootTime: time.Since(srv.started)}
	rss0, err := srv.rssBytes()
	if err != nil {
		ws.close()
		return nil, err
	}
	errs := make([]error, T)
	var wg sync.WaitGroup
	for c := 0; c < T; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			errs[c] = prefillConn(conns[c], order, c, T)
		}(c)
	}
	wg.Wait()
	ws.setupTime = time.Since(srv.started)
	for _, err := range errs {
		if err != nil {
			ws.close()
			return nil, fmt.Errorf("prefill: %w", err)
		}
	}
	rss1, err := srv.rssBytes()
	if err != nil {
		ws.close()
		return nil, err
	}
	ws.rssGrowth = rss1 - min(rss0, rss1)
	return ws, nil
}

func prefillConn(rc *respConn, order prefillOrder, first, stride int) error {
	for i := first; i < order.len(); {
		sent := 0
		for ; sent < prefillBurst && i < order.len(); i += stride {
			rc.appendOp(op{kind: opInsert, key: order.key(i)})
			sent++
		}
		if err := rc.flush(); err != nil {
			return err
		}
		for ; sent > 0; sent-- {
			rp, err := rc.readReply()
			if err != nil {
				return err
			}
			if rp.kind != '+' {
				return fmt.Errorf("SET reply %q %s", rp.kind, rp.text)
			}
		}
	}
	return nil
}

// repeatedWireSetup sets the child up reps times and keeps the last; the
// reported set-up time is the median.
func repeatedWireSetup(e env, T, reps int, order prefillOrder, flags func() ([]string, error)) (*wireSetup, float64, error) {
	var ws *wireSetup
	secs, err := medianSetup(reps, reps, 0, func() (time.Duration, error) {
		f, err := flags()
		if err != nil {
			return 0, err
		}
		if ws, err = setupWire(e, T, order, f...); err != nil {
			return 0, err
		}
		return ws.setupTime, nil
	}, func() { ws.close() })
	return ws, secs, err
}

// burstTally is what one closed-loop connection saw.
type burstTally struct{ ops, failed uint64 }

// burstClient writes depth commands, reads depth replies, checks each
// against the model, and repeats until the clock says stop.
func burstClient(rc *respConn, g *opGen, m *keyModel, depth int, clock *windowClock, done *paddedCounter, lat *latBuf) (burstTally, error) {
	var t burstTally
	burst := make([]op, depth)
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	for {
		w := clock.window()
		if w >= windows {
			return t, nil
		}
		for i := range burst {
			burst[i] = g.next()
			rc.appendOp(burst[i])
		}
		t0 := time.Now()
		if err := rc.flush(); err != nil {
			return t, err
		}
		for _, o := range burst {
			rp, err := rc.readReply()
			if err != nil {
				return t, err
			}
			if !m.check(o, rp) {
				t.failed++
			}
		}
		lat.record(w, int64(time.Since(t0)))
		t.ops += uint64(depth)
		done.n.Add(uint64(depth))
	}
}

// wireMix is the closed-loop wire mix: 80% GET, 10% SET, 10% DEL.
var wireMix = mix{get: 80, insert: 10, delete: 10}

// newWireGen returns connection c's stream: uniform keys, mutations moved
// to the keys only c writes.
func newWireGen(seed uint64, workload string, c, T int, m mix) *opGen {
	g := newOpGen(streamSeed(seed, workload, c), keySpace, m)
	g.writeStride, g.writeResidue = T, c
	return g
}

// checkDBSize compares the server's key count with the models'.
func checkDBSize(rc *respConn, models []*keyModel) (ok bool, got, want int64, err error) {
	for _, m := range models {
		want += int64(m.count())
	}
	rp, err := rc.roundTrip("DBSIZE")
	if err != nil {
		return false, 0, want, err
	}
	return rp.kind == ':' && rp.n == want, rp.n, want, nil
}

// readBack GETs every key of the key space and compares the answer with the
// model of the connection that owns the key; it returns the mismatches.
func readBack(rc *respConn, models []*keyModel) (mismatches uint64, err error) {
	T := len(models)
	for base := 0; base < keySpace; base += prefillBurst {
		for k := base; k < base+prefillBurst; k++ {
			rc.appendOp(op{kind: opGet, key: k})
		}
		if err := rc.flush(); err != nil {
			return mismatches, err
		}
		for k := base; k < base+prefillBurst; k++ {
			rp, err := rc.readReply()
			if err != nil {
				return mismatches, err
			}
			if !models[k%T].check(op{kind: opGet, key: k}, rp) {
				mismatches++
			}
		}
	}
	return mismatches, nil
}

// closedLoop runs one burst client per connection for the given seconds (a
// tenth of them warm-up), sampling probe at every window boundary, and
// returns the per-window figures of whatever probe observes, the clients'
// latency buffers and the number of replies that failed their check.
func closedLoop(conns []*respConn, gens []*opGen, models []*keyModel, depth int, seconds float64, probe func(ops uint64) (probeSample, error)) (windowRates, []*latBuf, uint64, error) {
	T := len(conns)
	warm, win := windowSplit(seconds, windows)
	clock := newWindowClock()
	done := make([]paddedCounter, T)
	lats := make([]*latBuf, T)
	tallies := make([]burstTally, T)
	errs := make([]error, T)
	perWindow := int(win.Seconds()*1e6/float64(depth)) + 1024
	var wg sync.WaitGroup
	for c := 0; c < T; c++ {
		lats[c] = newLatBuf(windows, perWindow)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tallies[c], errs[c] = burstClient(conns[c], gens[c], models[c], depth, clock, &done[c], lats[c])
		}(c)
	}
	var probeErr error
	samples := clock.run(warm, win, windows, func() probeSample {
		s, err := probe(sumCounters(done))
		if err != nil && probeErr == nil {
			probeErr = err
		}
		return s
	})
	wg.Wait()
	for _, err := range append(errs, probeErr) {
		if err != nil {
			return windowRates{}, nil, 0, err
		}
	}
	var failed uint64
	for _, t := range tallies {
		failed += t.failed
	}
	return rates(samples), lats, failed, nil
}

func runPipe16(e env, seed uint64, sz sizing) (result, error) {
	const name, depth = "wire_pipe16", 16
	T := clients()
	defer spareProcs()()
	cal, err := calibrate(nil, seed) // no rates: the closed-loop client only
	if err != nil {
		return result{}, err
	}
	order := newPrefillOrder(streamSeed(seed, name, -1), keySpace)
	ws, setupS, err := repeatedWireSetup(e, T, sz.setupReps, order, func() ([]string, error) { return nil, nil })
	if err != nil {
		return result{}, err
	}
	defer ws.close()

	gens, models := make([]*opGen, T), make([]*keyModel, T)
	for c := 0; c < T; c++ {
		gens[c] = newWireGen(seed, name, c, T, wireMix)
		models[c] = newKeyModel(T, c, true)
	}
	r, lats, failed, err := closedLoop(ws.conns, gens, models, depth, sz.seconds, ws.srv.probe)
	if err != nil {
		return result{}, err
	}
	sizeOK, got, want, err := checkDBSize(ws.conns[0], models)
	if err != nil {
		return result{}, err
	}
	if !sizeOK {
		failed++
		fmt.Printf("# %s: DBSIZE = %d, want %d\n", name, got, want)
	}
	v, err := ws.srv.vars()
	if err != nil {
		return result{}, err
	}
	if n := v.Counters["wal_appends"] + v.Counters["wal_fsyncs"] + v.Counters["snapshot_keys"]; n != 0 {
		failed++
		fmt.Printf("# %s: WAL/snapshot counters sum to %d on a server without a WAL\n", name, n)
	}

	pct, nLat, _ := windowPercentiles(lats, 0.50, 0.90, 0.99)
	res := newResult(r.ops, failed)
	res.set("setup_s", setupS, "s")
	res.set("throughput_ops_s", r.throughput, "ops/s")
	res.set("cpu_us_per_op", r.cpuUsPerOp, "us")
	res.set("allocs_per_op", r.allocsPerOp, "allocs/op")
	res.set("mem_bytes_per_key", float64(ws.rssGrowth)/float64(order.len()), "B/key")
	res.set("lat_p50_us", pct[0]/1e3, "us")
	res.set("e2e.lat_p90_us", pct[1]/1e3, "us")
	res.set("e2e.lat_p99_us", pct[2]/1e3, "us")
	res.set("gen.allocs_per_op", cal.allocsPerOp, "allocs/op")
	res.set("tcp.syscr_per_op", r.syscrPerOp, "calls/op")
	res.set("tcp.syscw_per_op", r.syscwPerOp, "calls/op")
	res.set("child.wal_appends_per_op", float64(v.Counters["wal_appends"])/float64(max(r.ops, 1)), "rec/op")
	res.set("child.snapshot_keys_per_op", float64(v.Counters["snapshot_keys"])/float64(max(r.ops, 1)), "keys/op")
	res.note("clients=%d depth=%d windows=%d window_s=%.2f ops=%d lat_samples=%d boot_s=%.4f syscr/op=%.4f syscw/op=%.4f",
		T, depth, windows, sz.seconds*0.9/windows, r.ops, nLat, ws.bootTime.Seconds(), r.syscrPerOp, r.syscwPerOp)
	res.note("window throughput %.0f", r.perWindow)
	return res, nil
}

// tempDir makes a fresh directory under the run's work directory.
func tempDir(e env, pattern string) (string, error) {
	if err := os.MkdirAll(e.workdir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(e.workdir, pattern)
}
