package telemetry

import (
	"fmt"
	"io"
	"net/http"
	"strconv"

	"repro/internal/instrument"
	itel "repro/internal/telemetry"
)

// Prometheus text exposition. Every metric carries a structure="<name>"
// label; deterministic ordering (counters in the canonical vocabulary
// order, then per-op series, instances sorted by name) keeps the output
// diff-able and golden-testable.
//
// Counter metrics map one-to-one onto the paper's Section 3.4 accounting:
//
//	lockfree_cas_attempts_total        C&S attempts (essential step)
//	lockfree_cas_successes_total       C&S that changed shared state
//	lockfree_backlink_traversals_total backlink steps (essential step)
//	lockfree_next_updates_total        next_node updates (essential step)
//	lockfree_curr_updates_total        curr_node advances (essential step)
//	lockfree_help_calls_total          helping-routine invocations
//	lockfree_restarts_total            restart-from-head events (baselines)
//	lockfree_aux_traversals_total      auxiliary-cell steps (baselines)
//
// plus per-operation series labeled op="insert"|"get"|"delete"|"ascend":
//
//	lockfree_ops_total                 completed operations
//	lockfree_op_latency_seconds        latency histogram
//	lockfree_op_retries                failed-C&S-per-operation histogram

// counterHelp documents each counter for the # HELP line, keyed by the
// canonical vocabulary index.
var counterHelp = [itel.NumCounters]string{
	"Total C&S attempts, successful or not (essential step, paper S3.4).",
	"Total C&S that changed shared state.",
	"Total backlink pointer traversals during recovery (essential step, paper S3.4).",
	"Total next_node pointer updates inside searches (essential step, paper S3.4).",
	"Total curr_node pointer advances inside searches (essential step, paper S3.4).",
	"Total helping-routine invocations (HelpFlagged/HelpMarked).",
	"Total restart-from-head events (Harris-style baselines; 0 for FR structures).",
	"Total auxiliary-cell traversals (Valois-style baselines; 0 for FR structures).",
	"Total searches that did not start alone at the head/top: finger searches started at the remembered node, and every key but the first of a batched-get descent group on each list.",
	"Total searches that started at the head/top with a finger or batch at hand: finger fallbacks (key below the finger, or cold finger), and the first key of a batched-get descent group on each list.",
	"Total operations routed to shards of range-sharded maps (one per point op, one per batch element).",
	"Total network connections accepted by the serving layer.",
	"Network connections currently open (accepted minus closed).",
	"Total connections shed at accept time by the connection cap.",
	"Total pipelined commands absorbed into coalesced batch calls by the serving layer.",
	"Total commands whose store execution crossed the serving layer's slow-trace threshold.",
	"Total connections auto-detected as RESP2 by their first byte.",
	"Total reply flushes by the serving layer (one vectored write per coalesced run).",
	"Total global epoch advances of the reclamation domain (epoch-based recycling).",
	"Total retired objects (list nodes; whole skip-list towers, whatever their height) pushed onto recycling free lists after their grace period.",
	"Total constructions (a list node, or a whole skip-list tower) served from a recycling free list instead of the allocator.",
	"Total constructions (a list node, or a whole skip-list tower) that missed the free list and allocated.",
	"Total retirements abandoned to the GC because a stalled epoch pinned the retire list at its cap.",
	"Total mutation records appended to the write-ahead log.",
	"Total group-commit fsyncs by the write-ahead log.",
	"Total framed record bytes written to write-ahead-log segments.",
	"Total key/value pairs streamed into on-disk snapshots.",
}

// WriteMetrics writes the Prometheus text exposition of the given
// instances to w in deterministic order.
func WriteMetrics(w io.Writer, instances ...*Telemetry) error {
	type inst struct {
		name string
		snap Snapshot
	}
	snaps := make([]inst, 0, len(instances))
	for _, t := range instances {
		snaps = append(snaps, inst{t.name, t.Snapshot()})
	}

	bw := &errWriter{w: w}

	// Essential-step and diagnostic counters. Gauge-class entries (levels,
	// e.g. conn_active) drop the _total suffix and export as gauges.
	for c := 0; c < itel.NumCounters; c++ {
		name := "lockfree_" + itel.CounterName(c) + "_total"
		typ := "counter"
		if instrument.Counter(c).Gauge() {
			name = "lockfree_" + itel.CounterName(c)
			typ = "gauge"
		}
		bw.printf("# HELP %s %s\n", name, counterHelp[c])
		bw.printf("# TYPE %s %s\n", name, typ)
		for _, in := range snaps {
			bw.printf("%s{structure=%q} %d\n", name, in.name, in.snap.Counters.Vector()[c])
		}
	}

	// Operation counts.
	bw.printf("# HELP lockfree_ops_total Completed operations by kind.\n")
	bw.printf("# TYPE lockfree_ops_total counter\n")
	for _, in := range snaps {
		for op := Op(0); op < NumOps; op++ {
			bw.printf("lockfree_ops_total{structure=%q,op=%q} %d\n",
				in.name, op.String(), in.snap.Ops[op].Count)
		}
	}

	// Per-op histograms, both rendered by instrument.HistSnapshot. Their
	// _count is the number of sampled operations (== the +Inf bucket),
	// which may be fewer than lockfree_ops_total when the recorder samples.
	hist := func(name, help string, seconds bool, pick func(OpSnapshot) instrument.HistSnapshot) {
		bw.printf("# HELP %s %s\n", name, help)
		bw.printf("# TYPE %s histogram\n", name)
		var b []byte
		for _, in := range snaps {
			for op := Op(0); op < NumOps; op++ {
				labels := "structure=" + strconv.Quote(in.name) + ",op=" + strconv.Quote(op.String())
				b = pick(in.snap.Ops[op]).AppendPrometheus(b, name, labels, seconds)
			}
		}
		bw.printf("%s", b)
	}
	hist("lockfree_op_latency_seconds", "Operation wall-clock latency by kind; a key of a batched get counts its share of its descent group's time (group time / group size).",
		true, func(o OpSnapshot) instrument.HistSnapshot { return o.Latency })
	hist("lockfree_op_retries", "Failed C&S attempts per operation by kind (contention).",
		false, func(o OpSnapshot) instrument.HistSnapshot { return o.Retries })
	return bw.err
}

// formatFloat renders a float the way Prometheus clients expect: shortest
// representation that round-trips.
func formatFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// errWriter latches the first write error so the renderer stays linear.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) printf(format string, args ...any) {
	if e.err != nil {
		return
	}
	_, e.err = fmt.Fprintf(e.w, format, args...)
}

// Handler returns an http.Handler serving the Prometheus text exposition
// of every registered Telemetry instance, followed by every registered
// Collector (see RegisterCollector). Mount it wherever the deployment
// scrapes, e.g. http.Handle("/metrics", telemetry.Handler()).
func Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := WriteMetrics(w, registered()...); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		if err := writeCollectors(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
}

// Handler returns an http.Handler serving this instance only.
func (t *Telemetry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		serveMetrics(w, t)
	})
}

func serveMetrics(w http.ResponseWriter, instances ...*Telemetry) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := WriteMetrics(w, instances...); err != nil {
		// Headers are gone; nothing useful left to do but note it.
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
