package main

// spec.go names every metric the benchmark prints. BENCHMARK.json lists the
// same names; a test keeps the two in step. The order here is the order of
// the README's glossary.

type metricSpec struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: the share by which it may get worse
}

// endToEnd are the metrics a user of the system sees; every workload
// reports every one of them with tracing off.
var endToEnd = []metricSpec{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "throughput_ops_s", unit: "ops/s", better: "higher", bound: 0.25},
	{name: "cpu_us_per_op", unit: "us", better: "lower", bound: 0.25},
	{name: "allocs_per_op", unit: "allocs/op", better: "lower", bound: 0.05},
	{name: "mem_bytes_per_key", unit: "B/key", better: "lower", bound: 0.10},
	{name: "lat_p50_us", unit: "us", better: "lower", bound: 0.25},
}

// perLayer are the traced run's metrics, one group per layer. A workload's
// traced run measures the layers its stream touches; the metrics of the
// other layers read 0 there, which for a counter (WAL appends on a server
// without a WAL) is also the prediction.
var perLayer = []metricSpec{
	// core: core.NewSkipList driven directly with a Proc carrying OpStats.
	{name: "core.self_ns", unit: "ns", better: "lower"},
	{name: "core.get_ns", unit: "ns", better: "lower"},
	{name: "core.insert_ns", unit: "ns", better: "lower"},
	{name: "core.delete_ns", unit: "ns", better: "lower"},
	{name: "core.scan_ns_per_key", unit: "ns", better: "lower"},
	{name: "core.batch64_ns_per_key", unit: "ns", better: "lower"},
	{name: "core.steps_per_op", unit: "steps/op", better: "lower"},
	{name: "core.cas_per_op", unit: "cas/op", better: "lower"},
	{name: "core.cas_success_ratio", unit: "ratio", better: "higher"},
	{name: "core.backlinks_per_kop", unit: "1/kop", better: "lower"},
	{name: "core.helps_per_kop", unit: "1/kop", better: "lower"},
	{name: "core.allocs_per_insert", unit: "allocs/op", better: "lower"},
	{name: "core.finger_hit_ratio", unit: "ratio", better: "higher"},
	// ebr: the facade built WithRecycling, on the churn stream.
	{name: "ebr.churn_ns_delta", unit: "ns", better: "lower"},
	{name: "ebr.allocs_per_op", unit: "allocs/op", better: "lower"},
	{name: "ebr.recycled_ratio", unit: "ratio", better: "higher"},
	{name: "ebr.stalled_epochs_per_mop", unit: "1/Mop", better: "lower"},
	// sharded: sharded.Map driven directly.
	{name: "sharded.self_ns", unit: "ns", better: "lower"},
	{name: "sharded.batch_self_ns_per_key", unit: "ns", better: "lower"},
	// lockfree: the facade's *Proc methods.
	{name: "lockfree.self_ns", unit: "ns", better: "lower"},
	{name: "lockfree.op_p99_ns", unit: "ns", better: "lower"},
	// server: server.New + ServeConn on a net.Pipe around a traced store.
	{name: "server.self_ns.d1", unit: "ns", better: "lower"},
	{name: "server.self_ns.d16", unit: "ns", better: "lower"},
	{name: "server.store_ns.d1", unit: "ns", better: "lower"},
	{name: "server.store_ns.d16", unit: "ns", better: "lower"},
	{name: "server.store_calls_per_op.d1", unit: "calls/op", better: "lower"},
	{name: "server.store_calls_per_op.d16", unit: "calls/op", better: "lower"},
	{name: "server.batch_mean.d16", unit: "ops/call", better: "higher"},
	{name: "server.allocs_per_op", unit: "allocs/op", better: "lower"},
	{name: "server.line_minus_resp_ns", unit: "ns", better: "lower"},
	{name: "server.queue_wait_p50_us", unit: "us", better: "lower"},
	// tcp: the same server behind Serve on a loopback listener; syscall
	// counts from the child's /proc/<pid>/io in the untraced part.
	{name: "tcp.self_ns.d1", unit: "ns", better: "lower"},
	{name: "tcp.self_ns.d16", unit: "ns", better: "lower"},
	{name: "tcp.syscr_per_op", unit: "calls/op", better: "lower"},
	{name: "tcp.syscw_per_op", unit: "calls/op", better: "lower"},
	// wal: wal.Open/Append/WaitDurable/FsyncLatency/Replay driven directly,
	// and the server rung with an async WAL.
	{name: "wal.append_ns", unit: "ns", better: "lower"},
	{name: "wal.async_self_ns.d1", unit: "ns", better: "lower"},
	{name: "wal.bytes_per_record", unit: "B", better: "lower"},
	{name: "wal.records_per_fsync", unit: "rec/fsync", better: "higher"},
	{name: "wal.fsync_p50_us", unit: "us", better: "lower"},
	{name: "wal.fsync_p99_us", unit: "us", better: "lower"},
	{name: "wal.sync_ack_p50_us", unit: "us", better: "lower"},
	{name: "wal.replay_rec_per_s", unit: "rec/s", better: "higher"},
	// snapshot: snapshot.Write/Restore driven directly.
	{name: "snapshot.write_keys_per_s", unit: "keys/s", better: "higher"},
	{name: "snapshot.restore_keys_per_s", unit: "keys/s", better: "higher"},
	{name: "snapshot.bytes_per_key", unit: "B/key", better: "lower"},
	// obs: server.NewObs/SetObs/SetTelemetry on against off.
	{name: "obs.self_ns.d1", unit: "ns", better: "lower"},
	// child: lflserver's own counters over the untraced part, read from
	// its admin endpoint; zero wherever the layer is predicted idle.
	{name: "child.wal_appends_per_op", unit: "rec/op", better: "lower"},
	{name: "child.wal_records_per_fsync", unit: "rec/fsync", better: "higher"},
	{name: "child.snapshot_keys_per_op", unit: "keys/op", better: "lower"},
	// The untraced part of the traced run, and the ledger's bookkeeping.
	{name: "e2e.lat_p90_us", unit: "us", better: "lower"},
	{name: "e2e.lat_p99_us", unit: "us", better: "lower"},
	{name: "durable.recovery_s", unit: "s", better: "lower"},
	{name: "durable.snapshot_cycles", unit: "count", better: "higher"},
	{name: "open.slo_rate_ops_s", unit: "ops/s", better: "higher"},
	{name: "open.r1.p50_us", unit: "us", better: "lower"},
	{name: "open.r1.p99_us", unit: "us", better: "lower"},
	{name: "open.r2.p50_us", unit: "us", better: "lower"},
	{name: "open.r2.p90_us", unit: "us", better: "lower"},
	{name: "open.r2.p99_us", unit: "us", better: "lower"},
	{name: "open.r2.p999_us", unit: "us", better: "lower"},
	{name: "open.r3.p50_us", unit: "us", better: "lower"},
	{name: "open.r3.p99_us", unit: "us", better: "lower"},
	{name: "open.backlog_max", unit: "count", better: "lower"},
	{name: "open.late_frac", unit: "fraction", better: "lower"},
	{name: "gen.late_frac", unit: "fraction", better: "lower"},
	{name: "gen.allocs_per_op", unit: "allocs/op", better: "lower"},
	{name: "trace.overhead_frac", unit: "fraction", better: "lower"},
	{name: "ledger.top_rung_ns", unit: "ns", better: "lower"},
	{name: "ledger.residual_frac", unit: "fraction", better: "lower"},
}

// only returns the metrics of r that specs names, in the spec's unit; a
// metric the run did not measure reads 0.
func (r result) only(specs []metricSpec) result {
	out := r
	out.Metrics = make(map[string]metric, len(specs))
	for _, s := range specs {
		out.Metrics[s.name] = metric{Value: r.Metrics[s.name].Value, Unit: s.unit}
	}
	return out
}
