package main

import (
	"bufio"
	"bytes"
	"cmp"
	"context"
	"fmt"
	"math/rand/v2"
	"net"
	"slices"
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
		if err := checkRound(rec.Ops()); err != nil {
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
// up to `pipeline` mixed commands on keys [keyBase, keyBase+keyRange),
// every response matched to its request positionally. Each SET writes a
// value unique in the round, its proc and op index. A missing response — a
// dropped in-flight command — or a failed write abandons every command of
// the run still unanswered and is an error, which is what makes the
// -server self rounds a graceful-drain check as well as a linearizability
// one; -killrecover expects it once the server is killed.
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
			k := keyBase + int(rng.Uint64N(uint64(keyRange)))
			var o history.Op
			switch rng.Uint64N(3) {
			case 0:
				o = th.Begin(history.KindInsert, k)
				o.Value = fmt.Sprintf("p%d.%d", o.Proc, i+j)
				fmt.Fprintf(&req, "SET %d %s\n", k, o.Value)
			case 1:
				o = th.Begin(history.KindDelete, k)
				fmt.Fprintf(&req, "DEL %d\n", k)
			default:
				o = th.Begin(history.KindSearch, k)
				fmt.Fprintf(&req, "GET %d\n", k)
			}
			pend = append(pend, o)
		}
		if _, err := nc.Write(req.Bytes()); err != nil {
			th.Abandon(pend...)
			return fmt.Errorf("write: %w", err)
		}
		for j := 0; j < c; j++ {
			line, err := br.ReadString('\n')
			if err != nil {
				th.Abandon(pend[j:]...)
				return fmt.Errorf("response %d/%d dropped in flight: %w", j, c, err)
			}
			if err := endReply(th, pend[j], line); err != nil {
				return err
			}
		}
		i += c
	}
	nc.Write([]byte("QUIT\n"))
	br.ReadString('\n')
	return nil
}

// checkRound checks a round's history: presence by history.Check, values
// by checkValues.
func checkRound(ops []history.Op) error {
	if err := history.Check(ops); err != nil {
		return err
	}
	return checkValues(ops)
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

// endReply records o's response line: integer and value replies carry the
// result, and a value reply the value read. Anything else — an -ERR means
// the client sent something the protocol rejects — is a driver bug, not a
// checkable outcome.
func endReply(th *history.Thread, o history.Op, line string) error {
	line = strings.TrimSuffix(line, "\n")
	switch {
	case strings.HasPrefix(line, ":"):
		th.End(o, line == ":1")
	case strings.HasPrefix(line, "$"):
		o.Value = line[1:]
		th.End(o, true)
	case line == "_":
		th.End(o, false)
	default:
		return fmt.Errorf("unexpected reply %q", line)
	}
	return nil
}

// checkValues holds every value a GET read to two conditions that any
// linearizable history whose SETs write unique values meets, across a
// crash too: a SET of that key that was not answered :0 wrote it, and
// every completed op on the key invoked after that SET's reply and
// answered before the GET was invoked — so linearized between the two —
// found the value present: a SET answered :0, a GET read the same value.
// They do not pin which of several SETs of a key in one pipelined run is
// current; the exact writer pass is ROADMAP item 16.
func checkValues(ops []history.Op) error {
	writer := make(map[string]history.Op)
	byKey := make(map[int][]history.Op)
	for _, o := range ops {
		if o.Kind == history.KindInsert {
			writer[o.Value] = o
		}
		byKey[o.Key] = append(byKey[o.Key], o)
	}
	for _, kops := range byKey {
		slices.SortFunc(kops, func(a, b history.Op) int { return cmp.Compare(a.Start, b.Start) })
		for _, g := range kops {
			if g.Kind != history.KindSearch || !g.Result {
				continue
			}
			w, ok := writer[g.Value]
			if !ok || w.Key != g.Key || !w.Pending && !w.Result {
				return fmt.Errorf("key %d: %v read %q, which no unrefused SET of that key wrote", g.Key, g, g.Value)
			}
			i, _ := slices.BinarySearchFunc(kops, w.End+1, func(u history.Op, t int64) int { return cmp.Compare(u.Start, t) })
			for _, u := range kops[i:] {
				if w.Pending || u.Start >= g.Start {
					break
				}
				if u.Pending || u.End >= g.Start || u.Kind == history.KindInsert && !u.Result ||
					u.Kind == history.KindSearch && u.Value == g.Value {
					continue
				}
				return fmt.Errorf("key %d: %v read %q, but %v came after its writer %v answered", g.Key, g, g.Value, u, w)
			}
		}
	}
	return nil
}
