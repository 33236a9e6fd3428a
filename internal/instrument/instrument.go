// Package instrument provides the per-process instrumentation shared by
// every list and skip-list implementation in this repository: essential
// step counters for the paper's amortized-cost accounting (Section 3.4)
// and named synchronization points for realizing adversarial schedules
// (Section 3.1).
package instrument

// OpStats accumulates the paper's "essential steps". Section 3.4 argues
// that counting exactly these gives the running time up to a constant
// factor:
//
//   - C&S attempts (successful or not),
//   - backlink pointer traversals,
//   - next_node pointer updates inside searches, and
//   - curr_node pointer updates inside searches.
//
// Baseline implementations without backlinks (Harris, Valois) count their
// analogous recovery steps - search restarts and auxiliary-cell
// traversals - in Restarts and AuxTraversals so total work is comparable.
type OpStats struct {
	CASAttempts        uint64 // every C&S attempted, any type
	CASSuccesses       uint64 // C&S that changed shared state
	BacklinkTraversals uint64 // prev = prev.backlink steps (FR lists)
	NextUpdates        uint64 // next_node reassignments inside searches
	CurrUpdates        uint64 // curr_node advances inside searches
	HelpCalls          uint64 // helping-routine invocations (diagnostic)
	Restarts           uint64 // restart-from-head events (Harris-style)
	AuxTraversals      uint64 // auxiliary-cell steps (Valois-style)
	FingerHits         uint64 // searches not started alone at head/top: from a finger's node, or in a batched get's descent group behind its first key
	FingerMisses       uint64 // finger searches that fell back to head/top; the first key of a descent group on each list
	ShardOps           uint64 // operations routed to a shard of a range-sharded map
	ConnAccepted       uint64 // network connections accepted by a serving layer
	ConnActive         uint64 // network connections currently open (gauge, not monotonic)
	ConnRejected       uint64 // connections shed at accept time (connection cap)
	CmdsCoalesced      uint64 // pipelined commands absorbed into batch calls
	CmdsSlow           uint64 // commands whose store execution crossed the slow-trace threshold
	ConnResp           uint64 // connections auto-detected as RESP2 by their first byte
	WireFlushes        uint64 // reply flushes (one vectored write per coalesced run)
	EpochAdvances      uint64 // global-epoch advances of a reclamation domain (internal/ebr)
	NodesRecycled      uint64 // retired nodes (a skip-list tower counts once) returned to a free list after their grace period
	FreelistHits       uint64 // node or whole-tower constructions served from a free list (no heap allocation)
	FreelistMisses     uint64 // node or whole-tower constructions that fell back to the heap allocator
	StalledEpochs      uint64 // retirements abandoned to the GC because the epoch was stalled
	WALAppends         uint64 // mutation records appended to the write-ahead log
	WALFsyncs          uint64 // group-commit fsyncs by the write-ahead log
	WALBytes           uint64 // framed record bytes written to write-ahead-log segments
	SnapshotKeys       uint64 // key/value pairs streamed into on-disk snapshots
}

// Counter indexes the essential-step vocabulary. The order is the canonical
// one shared by every consumer of OpStats: the telemetry layer's sharded
// counters, the exporters' metric names, and OpStats accumulation itself all
// use these indices, so a live metric and a benchmark counter cannot
// diverge.
type Counter int

const (
	CtrCASAttempts Counter = iota
	CtrCASSuccesses
	CtrBacklinkTraversals
	CtrNextUpdates
	CtrCurrUpdates
	CtrHelpCalls
	CtrRestarts
	CtrAuxTraversals
	CtrFingerHits
	CtrFingerMisses
	CtrShardOps
	CtrConnAccepted
	CtrConnActive
	CtrConnRejected
	CtrCmdsCoalesced
	CtrCmdsSlow
	CtrConnResp
	CtrWireFlushes
	CtrEpochAdvances
	CtrNodesRecycled
	CtrFreelistHits
	CtrFreelistMisses
	CtrStalledEpochs
	CtrWALAppends
	CtrWALFsyncs
	CtrWALBytes
	CtrSnapshotKeys
	// NumCounters is the size of the vocabulary.
	NumCounters
)

// CounterNames gives each counter its canonical snake_case name, used
// verbatim (plus a _total suffix) by the Prometheus and expvar exporters.
var CounterNames = [NumCounters]string{
	CtrCASAttempts:        "cas_attempts",
	CtrCASSuccesses:       "cas_successes",
	CtrBacklinkTraversals: "backlink_traversals",
	CtrNextUpdates:        "next_updates",
	CtrCurrUpdates:        "curr_updates",
	CtrHelpCalls:          "help_calls",
	CtrRestarts:           "restarts",
	CtrAuxTraversals:      "aux_traversals",
	CtrFingerHits:         "finger_hits",
	CtrFingerMisses:       "finger_misses",
	CtrShardOps:           "shard_ops",
	CtrConnAccepted:       "conn_accepted",
	CtrConnActive:         "conn_active",
	CtrConnRejected:       "conn_rejected",
	CtrCmdsCoalesced:      "cmds_coalesced",
	CtrCmdsSlow:           "cmds_slow",
	CtrConnResp:           "conn_resp",
	CtrWireFlushes:        "wire_flushes",
	CtrEpochAdvances:      "ebr_epoch_advances",
	CtrNodesRecycled:      "nodes_recycled",
	CtrFreelistHits:       "freelist_hits",
	CtrFreelistMisses:     "freelist_misses",
	CtrStalledEpochs:      "ebr_stalled_epochs",
	CtrWALAppends:         "wal_appends",
	CtrWALFsyncs:          "wal_fsyncs",
	CtrWALBytes:           "wal_bytes",
	CtrSnapshotKeys:       "snapshot_keys",
}

// Vector is the array form of OpStats, indexed by Counter.
type Vector [NumCounters]uint64

// Vector returns the counters in canonical order.
func (s *OpStats) Vector() Vector {
	return Vector{
		CtrCASAttempts:        s.CASAttempts,
		CtrCASSuccesses:       s.CASSuccesses,
		CtrBacklinkTraversals: s.BacklinkTraversals,
		CtrNextUpdates:        s.NextUpdates,
		CtrCurrUpdates:        s.CurrUpdates,
		CtrHelpCalls:          s.HelpCalls,
		CtrRestarts:           s.Restarts,
		CtrAuxTraversals:      s.AuxTraversals,
		CtrFingerHits:         s.FingerHits,
		CtrFingerMisses:       s.FingerMisses,
		CtrShardOps:           s.ShardOps,
		CtrConnAccepted:       s.ConnAccepted,
		CtrConnActive:         s.ConnActive,
		CtrConnRejected:       s.ConnRejected,
		CtrCmdsCoalesced:      s.CmdsCoalesced,
		CtrCmdsSlow:           s.CmdsSlow,
		CtrConnResp:           s.ConnResp,
		CtrWireFlushes:        s.WireFlushes,
		CtrEpochAdvances:      s.EpochAdvances,
		CtrNodesRecycled:      s.NodesRecycled,
		CtrFreelistHits:       s.FreelistHits,
		CtrFreelistMisses:     s.FreelistMisses,
		CtrStalledEpochs:      s.StalledEpochs,
		CtrWALAppends:         s.WALAppends,
		CtrWALFsyncs:          s.WALFsyncs,
		CtrWALBytes:           s.WALBytes,
		CtrSnapshotKeys:       s.SnapshotKeys,
	}
}

// FromVector sets the counters from their canonical array form.
func (s *OpStats) FromVector(v Vector) {
	s.CASAttempts = v[CtrCASAttempts]
	s.CASSuccesses = v[CtrCASSuccesses]
	s.BacklinkTraversals = v[CtrBacklinkTraversals]
	s.NextUpdates = v[CtrNextUpdates]
	s.CurrUpdates = v[CtrCurrUpdates]
	s.HelpCalls = v[CtrHelpCalls]
	s.Restarts = v[CtrRestarts]
	s.AuxTraversals = v[CtrAuxTraversals]
	s.FingerHits = v[CtrFingerHits]
	s.FingerMisses = v[CtrFingerMisses]
	s.ShardOps = v[CtrShardOps]
	s.ConnAccepted = v[CtrConnAccepted]
	s.ConnActive = v[CtrConnActive]
	s.ConnRejected = v[CtrConnRejected]
	s.CmdsCoalesced = v[CtrCmdsCoalesced]
	s.CmdsSlow = v[CtrCmdsSlow]
	s.ConnResp = v[CtrConnResp]
	s.WireFlushes = v[CtrWireFlushes]
	s.EpochAdvances = v[CtrEpochAdvances]
	s.NodesRecycled = v[CtrNodesRecycled]
	s.FreelistHits = v[CtrFreelistHits]
	s.FreelistMisses = v[CtrFreelistMisses]
	s.StalledEpochs = v[CtrStalledEpochs]
	s.WALAppends = v[CtrWALAppends]
	s.WALFsyncs = v[CtrWALFsyncs]
	s.WALBytes = v[CtrWALBytes]
	s.SnapshotKeys = v[CtrSnapshotKeys]
}

// AddVector accumulates v into s.
func (s *OpStats) AddVector(v Vector) {
	cur := s.Vector()
	for i := range cur {
		cur[i] += v[i]
	}
	s.FromVector(cur)
}

// Essential reports whether the counter is billed as an essential step by
// the paper's amortized analysis (Section 3.4). CAS attempts, backlink
// traversals and next/curr updates are the FR list's essential steps;
// auxiliary-cell traversals are Valois's analogue. Help calls, restarts,
// C&S successes, the finger hit/miss classifiers, shard routing counts,
// the serving-layer connection/coalescing counters and the reclamation
// counters are diagnostic only (restart and fallback work is billed
// through the next/curr updates the search performs, the serving layer sits
// entirely above the structures the analysis covers, and memory
// reclamation is bookkeeping the paper leaves to the environment).
func (c Counter) Essential() bool {
	switch c {
	case CtrCASAttempts, CtrBacklinkTraversals, CtrNextUpdates,
		CtrCurrUpdates, CtrAuxTraversals:
		return true
	default:
		return false
	}
}

// Gauge reports whether the counter is a level, not a monotonic total:
// its value can go down as well as up. The only gauge in the vocabulary
// is conn_active, maintained by the serving layer as accepted minus
// closed. Exporters render gauges without the _total suffix and with the
// Prometheus gauge type; Snapshot.Sub's saturating subtraction makes a
// Delta of a gauge meaningless (read the Snapshot level instead).
func (c Counter) Gauge() bool { return c == CtrConnActive }

// EssentialSteps returns the total billed step count: the quantity the
// paper's amortized analysis bounds by O(n(S) + c(S)) for the FR list, and
// the comparable total for the baselines.
func (s *OpStats) EssentialSteps() uint64 {
	var total uint64
	for c, v := range s.Vector() {
		if Counter(c).Essential() {
			total += v
		}
	}
	return total
}

// Add accumulates o into s.
func (s *OpStats) Add(o *OpStats) { s.AddVector(o.Vector()) }

// Reset zeroes every counter.
func (s *OpStats) Reset() { *s = OpStats{} }

// The Inc* helpers tolerate a nil receiver so instrumented code paths cost
// a single predictable branch when metrics are disabled.

// IncCAS records one C&S attempt and, if success, one success.
func (s *OpStats) IncCAS(success bool) {
	if s == nil {
		return
	}
	s.CASAttempts++
	if success {
		s.CASSuccesses++
	}
}

// IncBacklink records one backlink traversal.
func (s *OpStats) IncBacklink() {
	if s != nil {
		s.BacklinkTraversals++
	}
}

// IncNext records one next_node pointer update.
func (s *OpStats) IncNext() {
	if s != nil {
		s.NextUpdates++
	}
}

// IncCurr records one curr_node pointer update.
func (s *OpStats) IncCurr() {
	if s != nil {
		s.CurrUpdates++
	}
}

// IncHelp records one helping-routine invocation.
func (s *OpStats) IncHelp() {
	if s != nil {
		s.HelpCalls++
	}
}

// IncRestart records one restart-from-head event.
func (s *OpStats) IncRestart() {
	if s != nil {
		s.Restarts++
	}
}

// IncAux records one auxiliary-cell traversal.
func (s *OpStats) IncAux() {
	if s != nil {
		s.AuxTraversals++
	}
}

// IncShard records n operations routed to a shard of a range-sharded map
// (one per point operation, the sub-run length per batch sub-run).
func (s *OpStats) IncShard(n uint64) {
	if s != nil {
		s.ShardOps += n
	}
}

// IncEpochAdvance records one successful global-epoch advance.
func (s *OpStats) IncEpochAdvance() {
	if s != nil {
		s.EpochAdvances++
	}
}

// IncRecycled records n retired nodes pushed onto a free list after their
// grace period elapsed.
func (s *OpStats) IncRecycled(n uint64) {
	if s != nil {
		s.NodesRecycled += n
	}
}

// IncFreelist records one free-list consultation by a node constructor:
// hit means the node was served from the free list, miss that construction
// fell back to the heap allocator.
func (s *OpStats) IncFreelist(hit bool) {
	if s == nil {
		return
	}
	if hit {
		s.FreelistHits++
	} else {
		s.FreelistMisses++
	}
}

// IncStalled records one retirement abandoned to the garbage collector
// because the reclamation epoch was stalled (a pinned-but-idle critical
// section kept the retire list at its cap).
func (s *OpStats) IncStalled() {
	if s != nil {
		s.StalledEpochs++
	}
}

// Point names a synchronization point inside the algorithms. The
// adversarial executions of Section 3.1 require stopping a process at an
// exact program point; hooks at these points make those schedules
// reproducible on a real Go runtime.
type Point int

// Synchronization points covering every C&S site plus the recovery paths.
const (
	// PtSearchDone fires when a search has located its (curr, next) pair
	// and is about to return.
	PtSearchDone Point = iota + 1
	// PtBeforeInsertCAS fires immediately before the insertion C&S.
	PtBeforeInsertCAS
	// PtAfterInsertCASFail fires after a failed insertion C&S.
	PtAfterInsertCASFail
	// PtBeforeFlagCAS fires immediately before the flagging C&S.
	PtBeforeFlagCAS
	// PtBeforeMarkCAS fires immediately before the marking C&S.
	PtBeforeMarkCAS
	// PtBeforePhysicalCAS fires immediately before the physical-deletion
	// C&S.
	PtBeforePhysicalCAS
	// PtBacklinkStep fires on every backlink traversal.
	PtBacklinkStep
	// PtHelpFlagged fires on entry to a HelpFlagged routine.
	PtHelpFlagged
	// PtRestart fires when an operation restarts its search from the
	// head (Harris-style recovery).
	PtRestart
	// PtAfterUnlink fires after a successful unlink C&S, before any
	// cleanup/normalization (Valois-style deletion).
	PtAfterUnlink
)

// String returns the point's name for diagnostics.
func (p Point) String() string {
	switch p {
	case PtSearchDone:
		return "SearchDone"
	case PtBeforeInsertCAS:
		return "BeforeInsertCAS"
	case PtAfterInsertCASFail:
		return "AfterInsertCASFail"
	case PtBeforeFlagCAS:
		return "BeforeFlagCAS"
	case PtBeforeMarkCAS:
		return "BeforeMarkCAS"
	case PtBeforePhysicalCAS:
		return "BeforePhysicalCAS"
	case PtBacklinkStep:
		return "BacklinkStep"
	case PtHelpFlagged:
		return "HelpFlagged"
	case PtRestart:
		return "Restart"
	case PtAfterUnlink:
		return "AfterUnlink"
	default:
		return "UnknownPoint"
	}
}

// Hooks receives control at named points during an operation run under a
// Proc. Implementations typically block the calling goroutine to realize a
// deterministic schedule. At must be safe for concurrent use.
type Hooks interface {
	At(p Point, pid int)
}

// HookFunc adapts a function to the Hooks interface.
type HookFunc func(p Point, pid int)

// At calls f(p, pid).
func (f HookFunc) At(p Point, pid int) { f(p, pid) }

// Proc carries per-process instrumentation through an operation: optional
// step counters and optional adversary hooks. The paper's model is a fixed
// set of processes; a Proc is this implementation's stand-in for one. A
// nil *Proc is valid and disables all instrumentation.
type Proc struct {
	// Stats, when non-nil, accumulates essential-step counts for every
	// operation run under this Proc.
	Stats *OpStats
	// Hooks, when non-nil, receives control at named synchronization
	// points.
	Hooks Hooks
	// ID identifies the process to hooks; purely informational.
	ID int
	// Retire, when non-nil, is called with each node this process
	// physically deletes - i.e. when its physical-deletion C&S is the one
	// that succeeds, which happens exactly once per node. Memory
	// reclamation schemes (internal/ebr) hang their retire step here.
	Retire func(node any)
	// Epoch, when non-nil, is an opaque epoch-pin token (*ebr.Pin installed
	// by the lockfree facades' PinProc): it tells a recycling structure
	// that the calling goroutine already holds a critical section on the
	// structure's reclamation domain, so per-operation pin/unpin can be
	// skipped - the pinned fast path. Single-goroutine state, like Stats.
	Epoch any
}

// StatsOrNil returns the Proc's counter set, tolerating a nil Proc.
func (p *Proc) StatsOrNil() *OpStats {
	if p == nil {
		return nil
	}
	return p.Stats
}

// At forwards to the Proc's hooks, tolerating nil Proc and nil Hooks.
func (p *Proc) At(pt Point) {
	if p != nil && p.Hooks != nil {
		p.Hooks.At(pt, p.ID)
	}
}

// RetireNode forwards a physically deleted node to the Proc's Retire
// callback, tolerating nil Proc and nil Retire.
func (p *Proc) RetireNode(node any) {
	if p != nil && p.Retire != nil {
		p.Retire(node)
	}
}
