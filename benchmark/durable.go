package main

import (
	"fmt"
	"os"
	"time"
)

// wire_open_durable: lflserver with an async WAL and periodic snapshots,
// driven at depth 1: first closed loop (what the durable point path can
// carry, and its round trip), then open loop at three fixed total rates
// (what a service's clients see at each), then drained, restarted on the
// same directory and read back key for key.

// openRates are r1 < r2 < r3 in ops/s. They were moved once from the
// issue's 5000/15000/30000, when the benchmark was defined: two closed-loop
// depth-1 connections got 23 000 ops/s out of this server on the reference
// box (2 vCPUs), so r3 = 14 000 sits at 60% of capacity. They are frozen.
var openRates = []float64{2500, 7000, 14000}

const (
	openWindows = 5 // windows per rate
	sloP99      = time.Millisecond
)

// openMix is the open-loop mix: 50% GET, 25% SET, 25% DEL.
var openMix = mix{get: 50, insert: 25, delete: 25}

func runOpenDurable(e env, seed uint64, sz sizing) (result, error) {
	const name = "wire_open_durable"
	defer spareProcs()()
	cal, err := calibrate(openRates, seed)
	if err != nil {
		return result{}, err
	}

	T := clients()
	// Four phases of equal length: the closed loop, then the three rates;
	// and one snapshot per phase length. Every phase then carries exactly
	// one snapshot's worth of work, whose burst touches a minority of the
	// phase's windows, so the median window is always a quiet one and the
	// snapshot shows in the tail metrics, not as a coin flip in the median.
	// Four cycles per run is what the time cap leaves of the issue's six.
	phaseSecs := sz.seconds / float64(1+len(openRates))
	snapEvery := time.Duration(phaseSecs * float64(time.Second))
	var dirs []string
	defer func() {
		for _, d := range dirs {
			_ = os.RemoveAll(d) // best effort: the directory is scratch space
		}
	}()
	flags := func(dir string) []string {
		return []string{"-wal-dir", dir, "-wal-mode", "async", "-snapshot-every", snapEvery.String()}
	}
	order := newPrefillOrder(streamSeed(seed, name, -1), keySpace)
	ws, setupS, err := repeatedWireSetup(e, T, sz.setupReps, order, func() ([]string, error) {
		dir, err := tempDir(e, "wal-")
		if err != nil {
			return nil, err
		}
		dirs = append(dirs, dir)
		return flags(dir), nil
	})
	if err != nil {
		return result{}, err
	}
	defer func() { ws.close() }()
	walDir := dirs[len(dirs)-1]
	memPerKey := float64(ws.rssGrowth) / float64(order.len())

	gens, models := make([]*opGen, T), make([]*keyModel, T)
	for c := 0; c < T; c++ {
		gens[c] = newWireGen(seed, name, c, T, openMix)
		models[c] = newKeyModel(T, c, true)
	}

	// Closed loop, depth 1: the end-to-end throughput and latency of this
	// workload. (The open-loop latencies are per-layer metrics: with the
	// pacer on one of two cores they spread by 25-40% between runs of the
	// same code, which no bound could hold.)
	closed, closedLats, closedFailed, err := closedLoop(ws.conns, gens, models, 1, phaseSecs, ws.srv.probe)
	if err != nil {
		return result{}, err
	}

	ol := newOpenLoop(ws.conns, gens, models)
	ol.startReaders()
	defer ol.stop()
	before, err := ws.srv.probe(0)
	if err != nil {
		return result{}, err
	}
	vars0, err := ws.srv.vars()
	if err != nil {
		return result{}, err
	}
	ws.srv.countLines("") // forget the snapshots taken during the prefill
	var phases []openPhase
	var sent, late uint64
	failed := closedFailed
	backlogMax := 0
	for _, r := range openRates {
		p, err := ol.phase(r, phaseSecs, openWindows)
		if err != nil {
			return result{}, fmt.Errorf("rate %.0f/s: %w", r, err)
		}
		phases = append(phases, p)
		sent += p.sent
		failed += p.failed
		late += p.late
		backlogMax = max(backlogMax, p.backlogMax)
	}
	after, err := ws.srv.probe(sent)
	if err != nil {
		return result{}, err
	}
	vars1, err := ws.srv.vars()
	if err != nil {
		return result{}, err
	}
	snapshots := ws.srv.countLines("lflserver: snapshot at LSN")
	ol.stop()
	child := rates([]probeSample{before, after})
	counter := func(name string) float64 { return float64(vars1.Counters[name] - vars0.Counters[name]) }

	// Drain, restart on the same directory, and compare every key.
	if err := ws.srv.drain(); err != nil {
		return result{}, err
	}
	srv2, conns2, err := bootServer(e, 1, flags(walDir)...)
	if err != nil {
		return result{}, fmt.Errorf("restart: %w", err)
	}
	ws = &wireSetup{srv: srv2, conns: conns2}
	recoveryS := time.Since(srv2.started).Seconds()
	mismatches, err := readBack(conns2[0], models)
	if err != nil {
		return result{}, fmt.Errorf("read back: %w", err)
	}
	if mismatches > 0 {
		fmt.Printf("# %s: %d keys differ from the model after recovery\n", name, mismatches)
	}
	sizeOK, got, want, err := checkDBSize(conns2[0], models)
	if err != nil {
		return result{}, err
	}
	if !sizeOK {
		mismatches++
		fmt.Printf("# %s: DBSIZE after recovery = %d, want %d\n", name, got, want)
	}
	failed += mismatches

	res := newResult(closed.ops+sent+keySpace, failed)
	cp, nClosed, _ := windowPercentiles(closedLats, 0.50, 0.90, 0.99)
	res.set("throughput_ops_s", closed.throughput, "ops/s")
	res.set("lat_p50_us", cp[0]/1e3, "us")
	res.set("e2e.lat_p90_us", cp[1]/1e3, "us")
	res.set("e2e.lat_p99_us", cp[2]/1e3, "us")
	res.note("closed loop depth 1: %.2fs, %d ops, %d round trips timed, window throughput %.0f", phaseSecs, closed.ops, nClosed, closed.perWindow)
	// The rate the service sustains: the highest with p99 within the limit,
	// no failure, and no backlog left growing at the end of the phase.
	sloRate := 0.0
	for i, p := range phases {
		pct, n, _ := windowPercentiles(p.lats, 0.50, 0.90, 0.99, 0.999)
		if pct[2] <= float64(sloP99) && p.failed == 0 && p.backlogOut <= p.backlogIn+T {
			sloRate = max(sloRate, p.rate)
		}
		res.note("rate %.0f/s: p50=%.1fus p90=%.1fus p99=%.1fus p99.9=%.1fus samples=%d late=%d/%d backlog in/out/max=%d/%d/%d failed=%d",
			p.rate, pct[0]/1e3, pct[1]/1e3, pct[2]/1e3, pct[3]/1e3, n, p.late, p.sent, p.backlogIn, p.backlogOut, p.backlogMax, p.failed)
		switch i {
		case 0:
			res.set("open.r1.p50_us", pct[0]/1e3, "us")
			res.set("open.r1.p99_us", pct[2]/1e3, "us")
		case 1:
			res.set("open.r2.p50_us", pct[0]/1e3, "us")
			res.set("open.r2.p90_us", pct[1]/1e3, "us")
			res.set("open.r2.p99_us", pct[2]/1e3, "us")
			res.set("open.r2.p999_us", pct[3]/1e3, "us")
		case 2:
			res.set("open.r3.p50_us", pct[0]/1e3, "us")
			res.set("open.r3.p99_us", pct[2]/1e3, "us")
		}
	}
	res.set("setup_s", setupS, "s")
	res.set("cpu_us_per_op", child.cpuUsPerOp, "us")
	res.set("allocs_per_op", child.allocsPerOp, "allocs/op")
	res.set("mem_bytes_per_key", memPerKey, "B/key")
	res.set("tcp.syscr_per_op", child.syscrPerOp, "calls/op")
	res.set("tcp.syscw_per_op", child.syscwPerOp, "calls/op")
	res.set("child.wal_appends_per_op", counter("wal_appends")/float64(sent), "rec/op")
	res.set("child.wal_records_per_fsync", counter("wal_appends")/max(counter("wal_fsyncs"), 1), "rec/fsync")
	res.set("child.snapshot_keys_per_op", counter("snapshot_keys")/float64(sent), "keys/op")
	res.set("durable.recovery_s", recoveryS, "s")
	res.set("durable.snapshot_cycles", float64(snapshots), "count")
	res.set("open.slo_rate_ops_s", sloRate, "ops/s")
	res.set("open.backlog_max", float64(backlogMax), "count")
	res.set("open.late_frac", float64(late)/float64(sent), "fraction")
	res.set("gen.late_frac", cal.lateFrac, "fraction")
	res.set("gen.allocs_per_op", cal.allocsPerOp, "allocs/op")
	res.note("clients=%d rates=%v phase_s=%.2f windows/rate=%d sent=%d snapshots=%d recovery_s=%.4f slo_rate=%.0f",
		T, openRates, phaseSecs, openWindows, sent, snapshots, recoveryS, sloRate)
	return res, nil
}
