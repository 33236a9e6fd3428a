// Command lflserver serves one lock-free skip list as a networked ordered
// key-value store, speaking two wire dialects on the same port: the line
// protocol documented in internal/server (SET/GET/DEL/RANGE/LEN/PING) and
// RESP2, the Redis protocol, so redis-cli and redis-benchmark work out of
// the box. The dialect is auto-detected per connection from the first
// byte ('*' opens a RESP array). Each connection's pipelined command runs
// are coalesced into sorted batch calls through the finger machinery, so
// the amortized clustered-access bounds of DESIGN.md Section 8 carry over
// to network traffic — on either dialect — and replies go back in one
// vectored write per run over a zero-allocation reply path.
//
// Usage:
//
//	lflserver [-addr 127.0.0.1:7379] [-admin-addr HOST:PORT] [-pprof]
//	          [-max-conns 1024] [-max-batch 256] [-max-range 4096]
//	          [-trace-sample 64] [-trace-cap 1024] [-slow-ms 10]
//	          [-idle-timeout 5m] [-drain-timeout 10s]
//	          [-wal-dir DIR] [-wal-mode async|sync] [-fsync-window 2ms]
//	          [-snapshot-every 0]
//
// -wal-dir enables durability: every applied SET/DEL is framed into an
// append-only write-ahead log in DIR (one mutex-guarded buffer, committed
// by group commit; the serving hot path stays 0-alloc), and on boot the
// store recovers from the newest valid snapshot in DIR plus the WAL tail
// (snapshot.Recover). -wal-mode async acks before the fsync: an acked
// write may sit in process memory for up to one -fsync-window, so a crash
// or a SIGKILL may lose the last -fsync-window of acked writes. sync
// holds each reply flush until the run's mutations are fsynced, so an
// acked write survives SIGKILL.
// -snapshot-every streams a fuzzy snapshot (DESIGN.md §13) to DIR at
// that cadence and prunes WAL segments the snapshot covers.
//
// The store is one skip list over the whole key space: the range-sharded
// map (lockfree.ShardedSkipList) measured no faster on the benchmark's
// wire workloads (DESIGN.md §9).
// Each connection executes its own commands; there is no executor pool.
// Depth-1 traffic from many connections is served point by point, which
// measured about twice as fast as merging it across connections
// (DESIGN.md §12).
//
// With -admin-addr, an observability listener serves Prometheus /metrics
// (store and connection counters, per-verb latency histograms, and the
// runtime/metrics bridge), expvar /debug/vars, the sampled-operation ring
// at /debug/trace, and the /healthz and /readyz probes; /readyz starts
// failing the moment shutdown begins. -pprof additionally mounts
// net/http/pprof under /debug/pprof/ — opt-in because profiles can stall
// the process and leak internals. SIGINT or SIGTERM triggers a graceful
// drain: the server stops accepting, serves commands already on the wire,
// and exits once every connection has flushed — or after -drain-timeout,
// whichever comes first.
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/instrument"
	"repro/internal/obshttp"
	"repro/internal/server"
	"repro/internal/snapshot"
	"repro/internal/wal"
	"repro/lockfree"
	ltel "repro/lockfree/telemetry"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "lflserver:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("lflserver", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:7379", "TCP listen address for the line protocol")
	adminAddr := fs.String("admin-addr", "", "serve /metrics, /debug/vars, /healthz, /readyz on this address")
	maxConns := fs.Int("max-conns", 1024, "connection cap; excess connections are shed at accept time")
	maxBatch := fs.Int("max-batch", 256, "max pipelined commands coalesced into one batch call")
	maxRange := fs.Int("max-range", 4096, "max pairs one RANGE may return")
	idle := fs.Duration("idle-timeout", 5*time.Minute, "close connections idle this long")
	drain := fs.Duration("drain-timeout", 10*time.Second, "graceful-shutdown deadline on SIGINT/SIGTERM")
	pprofOn := fs.Bool("pprof", false, "mount net/http/pprof on the admin listener (requires -admin-addr)")
	traceSample := fs.Int("trace-sample", 64, "trace every Nth command unit (a power of two; 1 = every unit)")
	traceCap := fs.Int("trace-cap", 1024, "capacity of the sampled-operation trace ring")
	slowMS := fs.Int("slow-ms", 10, "always trace command units whose store execution exceeds this many milliseconds")
	walDir := fs.String("wal-dir", "", "enable durability: WAL segments and snapshots live in this directory")
	walMode := fs.String("wal-mode", "async", "with -wal-dir: async (ack before fsync) or sync (hold acks for fsync)")
	fsyncWindow := fs.Duration("fsync-window", 2*time.Millisecond, "WAL group-commit window: async acks may be lost to a crash for this long; 0 commits every batch at once")
	snapshotEvery := fs.Duration("snapshot-every", 0, "write a fuzzy snapshot and prune the WAL at this cadence (0 = never)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	// Exact recording: a server wants complete counters on its admin
	// endpoint, not a sampled estimate.
	tel := ltel.New("lflserver", ltel.WithSampleEvery(1)).PublishExpvar()
	defer tel.Unregister()

	// Clients choose the keys, and a client that knew the tower-height
	// seed could choose keys whose towers are all short, turning every
	// search linear. So the seed is drawn here, private to this process,
	// and never printed or exported.
	store := lockfree.NewSkipList[int, string](lockfree.WithTelemetry(tel), lockfree.WithSeed(rand.Uint64()))

	// Durability: recover snapshot + WAL tail before serving, then hand
	// the open log to the server for publish-at-reply-site logging.
	durability := server.DurabilityOff
	var walLog *wal.Log
	if *walDir != "" {
		switch *walMode {
		case "async":
			durability = server.DurabilityAsync
		case "sync":
			durability = server.DurabilitySync
		default:
			return fmt.Errorf("-wal-mode %q: want async or sync", *walMode)
		}
		start := time.Now()
		var rec snapshot.Recovered
		var err error
		walLog, rec, err = snapshot.Recover(*walDir,
			wal.Options{FsyncWindow: *fsyncWindow, Telemetry: tel.Recorder()},
			func(k int64, v string) bool { return store.Insert(int(k), v) },
			func(k int64) { store.Delete(int(k)) })
		if err != nil {
			return err
		}
		defer walLog.Close()
		fmt.Printf("lflserver: recovered %d snapshot keys (LSN %d) + %d WAL records in %v\n",
			rec.SnapshotKeys, rec.SnapshotLSN, rec.WALRecords, time.Since(start).Round(time.Millisecond))
	}

	srv := server.New(server.Config{
		Addr:        *addr,
		MaxConns:    *maxConns,
		MaxBatch:    *maxBatch,
		MaxRange:    *maxRange,
		ReadTimeout: *idle,
		Durability:  durability,
		WAL:         walLog,
	}, store)
	srv.SetTelemetry(tel.Recorder())

	obs := server.NewObs(server.ObsConfig{
		SampleEvery:   *traceSample,
		TraceCap:      *traceCap,
		SlowThreshold: time.Duration(*slowMS) * time.Millisecond,
	})
	srv.SetObs(obs)

	if *snapshotEvery > 0 {
		if walLog == nil {
			return fmt.Errorf("-snapshot-every needs -wal-dir")
		}
		stopSnap := make(chan struct{})
		defer close(stopSnap)
		go func() {
			tick := time.NewTicker(*snapshotEvery)
			defer tick.Stop()
			for {
				select {
				case <-stopSnap:
					return
				case <-tick.C:
				}
				// Stamp with the LSN current at scan start: every record
				// published before it was applied before the scan, and the
				// replay of anything newer is idempotent (DESIGN.md §13).
				lsn := walLog.LastLSN()
				keys, _, err := snapshot.Write(*walDir, lsn, func(fn func(key int64, val string) bool) {
					store.Ascend(func(k int, v string) bool { return fn(int64(k), v) })
				}, tel.Recorder())
				if err != nil {
					fmt.Fprintln(os.Stderr, "lflserver: snapshot:", err)
					continue
				}
				if err := snapshot.Prune(*walDir, 2); err != nil {
					fmt.Fprintln(os.Stderr, "lflserver: snapshot prune:", err)
				}
				// Prune the WAL only up to the *oldest retained* snapshot's
				// stamp: if the newest image later fails its CRC, Restore
				// falls back to the older one, which needs every record in
				// (olderLSN, newestLSN] still on disk to replay without a gap.
				if keep := snapshot.Oldest(*walDir); keep > 0 {
					if err := walLog.Prune(keep); err != nil {
						fmt.Fprintln(os.Stderr, "lflserver: wal prune:", err)
					}
				}
				fmt.Printf("lflserver: snapshot at LSN %d (%d keys)\n", lsn, keys)
			}
		}()
	}

	// Catch the drain signals before anything binds: whoever waits for a
	// port to answer or for a banner line below may signal the moment it
	// sees one, and the default handler would kill the process undrained.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sig)

	shutdowners := []server.Shutdowner{srv}
	if *adminAddr != "" {
		// One scrape answers the full latency question: the store's own
		// counters, the serving layer's per-verb histograms, and the
		// runtime signals (GC pauses, scheduler latency) that explain
		// tail spikes the structures cannot.
		ltel.RegisterCollector("lflserver-obs", obs.WritePrometheus)
		ltel.RegisterRuntimeCollector()
		if walLog != nil {
			ltel.RegisterCollector("lflserver-wal", walFsyncCollector(walLog.FsyncLatency))
		}
		opts := []obshttp.Option{obshttp.WithHandler("/debug/trace", obs.TraceHandler())}
		if *pprofOn {
			opts = append(opts, obshttp.WithPprof())
		}
		admin, err := obshttp.ServeAdmin(*adminAddr, srv.Healthy, srv.Ready, opts...)
		if err != nil {
			return err
		}
		shutdowners = append(shutdowners, admin)
		fmt.Printf("lflserver: admin endpoints on http://%s\n", admin.Addr())
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	// ListenAndServe binds before blocking in Accept, so poll briefly for
	// the bound address; a bind failure surfaces on errc instead.
	for i := 0; srv.Addr() == "" && i < 100; i++ {
		select {
		case err := <-errc:
			return err
		case <-time.After(time.Millisecond):
		}
	}
	fmt.Printf("lflserver: serving skip-list store on %s (line protocol and RESP2)\n", srv.Addr())

	select {
	case err := <-errc:
		return err
	case s := <-sig:
		fmt.Printf("lflserver: %v, draining (deadline %v)\n", s, *drain)
		if err := server.GracefulShutdown(*drain, shutdowners...); err != nil {
			return fmt.Errorf("drain incomplete: %w", err)
		}
		fmt.Println("lflserver: drained cleanly")
		return nil
	}
}

// walFsyncCollector renders the WAL's fsync-latency histogram, as snap
// returns it, as a Prometheus series on the shared /metrics endpoint, in the
// same octave bucketing as the serving layer's latency histograms.
func walFsyncCollector(snap func() instrument.HistSnapshot) ltel.Collector {
	return func(w io.Writer) error {
		b := []byte("# HELP lockfree_wal_fsync_seconds Write-ahead-log group-commit fsync latency.\n" +
			"# TYPE lockfree_wal_fsync_seconds histogram\n")
		_, err := w.Write(snap().AppendPrometheus(b, "lockfree_wal_fsync_seconds", "", true))
		return err
	}
}
