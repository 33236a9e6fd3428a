package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"net"
	"strings"
	"sync"
	"time"

	"repro/internal/history"
	"repro/internal/instrument"
	"repro/internal/server"
	"repro/lockfree"
	ltel "repro/lockfree/telemetry"
)

// runServerMode is the -server client: it drives a lflserver over TCP with
// the same mixed workload and checks every response against the
// linearizability checker. Each worker owns one connection and writes its
// commands in pipelined runs, so the server-side coalescer turns them into
// sorted batch calls; every command is recorded with Begin before its
// pipeline hits the wire and End after its response is read, so the
// recorded window contains the server-side linearization point and the
// history check stays sound.
//
// addr "self" starts a fresh in-process server per round on a loopback
// port, over one skip list as lflserver serves (over the range-sharded
// map when shards > 1), and, after the workers close, asserts the
// graceful drain completes with zero dropped in-flight responses. Any other addr drives an external
// server; each round then shifts its keys by round*keyRange so rounds do
// not see each other's leftovers, and sweeps its slice with DELs first so
// state from before the run (the checker assumes an empty history per key)
// cannot fail round 0.
func runServerMode(addr string, threads, ops, keyRange, rounds int, seed uint64, pipeline, shards int, recycle bool, tel *ltel.Telemetry, telEvery int) error {
	if pipeline <= 0 {
		pipeline = 16
	}
	if shards&(shards-1) != 0 {
		return fmt.Errorf("-shards %d: shard count must be a power of two", shards)
	}
	if shards > keyRange {
		return fmt.Errorf("-shards %d exceeds -keys %d: every shard must own at least one key", shards, keyRange)
	}
	if recycle && addr != "self" {
		return fmt.Errorf("-recycle with -server applies only to \"self\" (the store of an external server is not ours to configure)")
	}
	// In self mode one Obs spans every round's server, so the per-verb
	// latency histograms accumulate across rounds and the periodic delta
	// can report serving-layer p99/p999 alongside the structure counters.
	var obs *server.Obs
	var prevVerb [server.NumVerbs]instrument.HistSnapshot
	if tel != nil && addr == "self" {
		obs = server.NewObs(server.ObsConfig{})
	}
	totalOps := 0
	var totalRecycled, totalDropped uint64
	for round := 0; round < rounds; round++ {
		target, keyBase := addr, round*keyRange
		var srv *server.Server
		var roundStore server.Store
		if addr == "self" {
			opts := []lockfree.Option{lockfree.WithSeed(seed + uint64(round))}
			if tel != nil {
				opts = append(opts, lockfree.WithTelemetry(tel))
			}
			if recycle {
				opts = append(opts, lockfree.WithRecycling())
			}
			var store server.Store
			if shards > 1 {
				store = lockfree.NewShardedSkipList[int, string](
					lockfree.EqualSplitters(0, keyRange, shards), opts...)
			} else {
				store = lockfree.NewSkipList[int, string](opts...)
			}
			roundStore = store
			srv = server.New(server.Config{}, store)
			if tel != nil {
				srv.SetTelemetry(tel.Recorder())
			}
			if obs != nil {
				srv.SetObs(obs)
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return err
			}
			go srv.Serve(ln)
			target, keyBase = ln.Addr().String(), 0
		} else if err := clearKeys(target, keyBase, keyRange); err != nil {
			return fmt.Errorf("round %d: clearing [%d, %d): %w", round, keyBase, keyBase+keyRange, err)
		}

		rec := history.NewRecorder(threads, ops)
		errs := make([]error, threads)
		var wg sync.WaitGroup
		for w := 0; w < threads; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewPCG(seed+uint64(round), uint64(w)))
				errs[w] = runServerWorker(target, rec.Thread(w), rng, ops, keyRange, keyBase, pipeline)
			}(w)
		}
		wg.Wait()
		for w, err := range errs {
			if err != nil {
				return roundFailed(round, seed, fmt.Errorf("worker %d: %w", w, err))
			}
		}
		if srv != nil {
			// The zero-dropped-responses half of the guarantee is asserted by
			// every worker above; here the drain itself must finish cleanly.
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			err := srv.Shutdown(ctx)
			cancel()
			if err != nil {
				return roundFailed(round, seed, fmt.Errorf("graceful drain incomplete: %w", err))
			}
			if recycle {
				// The drained server is quiescent: flush the store's domain
				// and fold its identity-reuse totals into the run summary.
				rec := roundStore.(interface {
					ForceReclaim()
					RecycleCounts() (uint64, uint64)
				})
				for i := 0; i < 6; i++ {
					rec.ForceReclaim()
				}
				r, d := rec.RecycleCounts()
				totalRecycled += r
				totalDropped += d
			}
		}
		if err := history.Check(rec.Ops()); err != nil {
			return roundFailed(round, seed, err)
		}
		totalOps += threads * ops
		if tel != nil && telEvery > 0 && (round+1)%telEvery == 0 {
			printTelemetryDelta(round+1, tel.Delta())
			if obs != nil {
				printVerbLatencyDelta(obs, &prevVerb)
			}
		}
	}
	fmt.Printf("ok: server %s passed, %d rounds, %d checked operations over TCP, all histories linearizable\n",
		addr, rounds, totalOps)
	if recycle {
		fmt.Printf("ok: node recycling live in the served store: %d node identities reused, %d dropped to GC\n",
			totalRecycled, totalDropped)
		if totalRecycled == 0 {
			return fmt.Errorf("-recycle server run reused no node identities (raise -ops or lower -keys)")
		}
	}
	return nil
}

// runServerWorker drives one connection for one round: pipelined runs of
// up to `pipeline` mixed commands, every response matched to its request
// positionally. A missing response — a dropped in-flight command — is an
// error, which is what makes the -server self rounds a graceful-drain
// check as well as a linearizability one.
func runServerWorker(target string, th *history.Thread, rng *rand.Rand, ops, keyRange, keyBase, pipeline int) error {
	nc, err := net.Dial("tcp", target)
	if err != nil {
		return err
	}
	defer nc.Close()
	br := bufio.NewReader(nc)
	var req bytes.Buffer
	pend := make([]history.Op, 0, pipeline)
	for i := 0; i < ops; {
		c := min(pipeline, ops-i)
		req.Reset()
		pend = pend[:0]
		for j := 0; j < c; j++ {
			k := int(rng.Uint64N(uint64(keyRange)))
			var kind history.Kind
			switch rng.Uint64N(3) {
			case 0:
				kind = history.KindInsert
				fmt.Fprintf(&req, "SET %d v\n", keyBase+k)
			case 1:
				kind = history.KindDelete
				fmt.Fprintf(&req, "DEL %d\n", keyBase+k)
			default:
				kind = history.KindSearch
				fmt.Fprintf(&req, "GET %d\n", keyBase+k)
			}
			pend = append(pend, th.Begin(kind, k))
		}
		if _, err := nc.Write(req.Bytes()); err != nil {
			return fmt.Errorf("write: %w", err)
		}
		for j := 0; j < c; j++ {
			line, err := br.ReadString('\n')
			if err != nil {
				return fmt.Errorf("response %d/%d dropped in flight: %w", j, c, err)
			}
			ok, err := parseReply(strings.TrimSuffix(line, "\n"))
			if err != nil {
				return err
			}
			th.End(pend[j], ok)
		}
		i += c
	}
	nc.Write([]byte("QUIT\n"))
	br.ReadString('\n')
	return nil
}

// clearKeys deletes every key in [keyBase, keyBase+keyRange) on an
// external server before a round records anything, in pipelined chunks.
func clearKeys(target string, keyBase, keyRange int) error {
	nc, err := net.Dial("tcp", target)
	if err != nil {
		return err
	}
	defer nc.Close()
	br := bufio.NewReader(nc)
	var req bytes.Buffer
	for lo := keyBase; lo < keyBase+keyRange; lo += 256 {
		hi := min(lo+256, keyBase+keyRange)
		req.Reset()
		for k := lo; k < hi; k++ {
			fmt.Fprintf(&req, "DEL %d\n", k)
		}
		if _, err := nc.Write(req.Bytes()); err != nil {
			return err
		}
		for k := lo; k < hi; k++ {
			if _, err := br.ReadString('\n'); err != nil {
				return err
			}
		}
	}
	return nil
}

// printVerbLatencyDelta reports the serving layer's per-verb latency over
// the interval since the previous call: count, mean, and the p50/p99/p999
// tail quantiles out of the per-verb histograms. prev carries the last
// snapshot so each interval reports its own traffic, not the cumulative
// run.
func printVerbLatencyDelta(obs *server.Obs, prev *[server.NumVerbs]instrument.HistSnapshot) {
	for v := 0; v < server.NumVerbs; v++ {
		cur := obs.VerbLatency(server.Verb(v))
		d := cur.Sub(prev[v])
		prev[v] = cur
		if d.Count == 0 {
			continue
		}
		line := fmt.Sprintf("[telemetry]   verb %-5s n=%-7d mean=%v",
			server.Verb(v).Label(), d.Count, time.Duration(int64(d.Mean())))
		for _, q := range []struct {
			name string
			q    float64
		}{{"p50", 0.50}, {"p99", 0.99}, {"p999", 0.999}} {
			if ns, ok := d.Quantile(q.q); ok {
				line += fmt.Sprintf(" %s=%v", q.name, time.Duration(ns))
			}
		}
		fmt.Println(line)
	}
}

// parseReply maps a response line to the boolean the history checker
// records: integer and value replies carry the result, an -ERR means the
// client sent something the protocol rejects — a driver bug, not a
// checkable outcome.
func parseReply(line string) (bool, error) {
	switch {
	case strings.HasPrefix(line, ":"):
		return line == ":1", nil
	case strings.HasPrefix(line, "$"):
		return true, nil
	case line == "_":
		return false, nil
	default:
		return false, fmt.Errorf("unexpected reply %q", line)
	}
}
