// Package telemetry exposes live metrics for the lock-free structures in
// package lockfree: the paper's essential-step counters (Section 3.4 cost
// accounting - C&S attempts, backlink traversals, next/curr updates, help
// calls), operation counts, and latency and retry histograms per
// operation kind. The histograms are instrument.Hist: exact cells up to
// 15, then four sub-buckets per power of two (quantiles within 12.5%).
//
// Attach a Telemetry to a structure at construction time:
//
//	tel := telemetry.New("sessions")
//	m := lockfree.NewSkipList[string, int](lockfree.WithTelemetry(tel))
//
// and read it three ways:
//
//   - tel.Snapshot() / tel.Delta() return typed structs for programmatic
//     consumption;
//   - tel.PublishExpvar() registers the snapshot under "lockfree:sessions"
//     in the standard expvar registry (and thus /debug/vars);
//   - telemetry.Handler() (all instances) or tel.Handler() (one instance)
//     serve Prometheus text exposition format over HTTP.
//
// Telemetry is opt-in. A structure built without WithTelemetry pays one
// nil-check branch per operation and nothing else; an attached Telemetry
// costs an atomic load and add per operation and, on the sampled ones
// (see WithSampleEvery), two monotonic clock reads plus one flush into a
// goroutine-affine, cache-line-padded stripe of counters and histograms -
// never a shared write per step. See DESIGN.md "Observability" for the
// mapping from each metric to the paper's accounting.
package telemetry

import (
	"expvar"
	"fmt"
	"sort"
	"sync"

	itel "repro/internal/telemetry"
)

// Snapshot is a point-in-time copy of every metric of one structure; see
// the internal telemetry package for field documentation.
type Snapshot = itel.Snapshot

// OpSnapshot is the per-operation-kind slice of a Snapshot.
type OpSnapshot = itel.OpSnapshot

// Op identifies an operation kind.
type Op = itel.Op

// Operation kinds, re-exported for indexing Snapshot.Ops.
const (
	OpInsert = itel.OpInsert
	OpGet    = itel.OpGet
	OpDelete = itel.OpDelete
	OpAscend = itel.OpAscend
	NumOps   = itel.NumOps
)

// Telemetry collects live metrics for one structure (or one group of
// structures - attaching the same Telemetry to several structures sums
// their metrics). Construct with New; the zero value is not usable.
type Telemetry struct {
	name string
	rec  *itel.Recorder
}

// Option configures a Telemetry.
type Option func(*cfg)

type cfg struct {
	sampleEvery int
}

// WithSampleEvery overrides the latency/retry histogram sampling period
// (rounded up to a power of two; 1 samples every operation, the default is
// one in 16). Step counters and operation counts are always exact;
// sampling only bounds how often an operation pays for clock reads and
// histogram updates.
func WithSampleEvery(n int) Option { return func(c *cfg) { c.sampleEvery = n } }

// registry holds every live instance for the package-level Handler.
var (
	registryMu sync.Mutex
	registry   = map[string]*Telemetry{}
)

// New returns a Telemetry named name and registers it for the
// package-level Handler. The name becomes the "structure" label of every
// exported metric and the expvar key "lockfree:<name>"; it must be
// non-empty and unused (Unregister frees a name).
func New(name string, opts ...Option) *Telemetry {
	if name == "" {
		panic("telemetry: empty name")
	}
	var c cfg
	for _, o := range opts {
		o(&c)
	}
	rec := itel.NewRecorder(0)
	if c.sampleEvery > 0 {
		rec.SetSampleEvery(c.sampleEvery)
	}
	t := &Telemetry{name: name, rec: rec}
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("telemetry: name %q already registered (Unregister it first)", name))
	}
	registry[name] = t
	return t
}

// Unregister removes t from the package-level Handler's registry, freeing
// its name for reuse. The expvar registration, if any, is permanent - the
// standard library offers no removal - and keeps serving t's snapshots
// until a successor instance publishes the same name.
func (t *Telemetry) Unregister() {
	registryMu.Lock()
	defer registryMu.Unlock()
	if registry[t.name] == t {
		delete(registry, t.name)
	}
}

// registered returns the live instances sorted by name.
func registered() []*Telemetry {
	registryMu.Lock()
	defer registryMu.Unlock()
	out := make([]*Telemetry, 0, len(registry))
	for _, t := range registry {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// Name returns the instance name.
func (t *Telemetry) Name() string { return t.name }

// Recorder returns the low-level recorder the structures flush into. It is
// the wiring hook used by lockfree.WithTelemetry and the cmd tools;
// applications normally have no reason to call it.
func (t *Telemetry) Recorder() *itel.Recorder { return t.rec }

// Snapshot returns a point-in-time copy of every metric.
func (t *Telemetry) Snapshot() Snapshot { return t.rec.Snapshot() }

// Delta returns the change since the previous Delta call (or since
// creation, for the first call). Handy for periodic rate reporting.
func (t *Telemetry) Delta() Snapshot { return t.rec.Delta() }

// expvarLive maps a published name to the instance currently serving it.
// The expvar registration itself is permanent - the standard library
// offers no removal - so the registered Func resolves the instance at read
// time: a Telemetry re-created under a published name (Unregister, then
// New and PublishExpvar again, as tools that run repeatedly in one process
// do) takes over the existing expvar entry instead of panicking on a
// duplicate Publish.
var (
	expvarMu   sync.Mutex
	expvarLive = map[string]*Telemetry{}
)

// PublishExpvar registers the instance in the standard expvar registry
// under "lockfree:<name>", so its snapshot appears as a JSON object in
// /debug/vars. Safe to call more than once, and safe to call for a name a
// previous (since unregistered) instance published - the entry switches to
// serving t's snapshots. Returns t for chaining.
func (t *Telemetry) PublishExpvar() *Telemetry {
	expvarMu.Lock()
	defer expvarMu.Unlock()
	_, published := expvarLive[t.name]
	expvarLive[t.name] = t
	if !published {
		name := t.name
		expvar.Publish("lockfree:"+name, expvar.Func(func() any {
			expvarMu.Lock()
			cur := expvarLive[name]
			expvarMu.Unlock()
			return expvarView(cur.Snapshot())
		}))
	}
	return t
}

// expvarView renders a snapshot as the nested map expvar serializes to
// JSON: counters by canonical name, then per-op count, latency and retry
// scalars. The distributions themselves, with their bounds, are served
// on /metrics.
func expvarView(s Snapshot) map[string]any {
	counters := map[string]uint64{}
	for c, v := range s.Counters.Vector() {
		counters[itel.CounterName(c)] = v
	}
	ops := map[string]any{}
	for op := Op(0); op < NumOps; op++ {
		o := s.Ops[op]
		view := map[string]any{
			"count":           o.Count,
			"latency_samples": o.Latency.Count,
			"latency_sum_ns":  o.Latency.Sum,
			"retry_sum":       o.Retries.Sum,
		}
		if p50, ok := o.Latency.Quantile(0.50); ok {
			view["latency_p50_ns"] = p50
		}
		if p99, ok := o.Latency.Quantile(0.99); ok {
			view["latency_p99_ns"] = p99
		}
		ops[op.String()] = view
	}
	return map[string]any{
		"counters":              counters,
		"ops":                   ops,
		"essential_steps_total": s.Counters.EssentialSteps(),
		"ops_total":             s.TotalOps(),
	}
}
