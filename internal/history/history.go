// Package history records concurrent dictionary histories and checks them
// for linearizability (Herlihy & Wing 1990), the correctness condition the
// paper proves for its implementations (Section 3.3).
//
// Insert, Delete and Search each touch a single key, and a dictionary is
// the product of independent per-key presence bits, so a history is
// linearizable iff each key's sub-history is (Herlihy-Wing locality). A
// presence bit makes each key's check one greedy pass. A successful insert
// sets the bit and a successful delete clears it; every other op reads it
// (a search reads its result, a failed insert 1, a failed delete 0). An op
// may be linearized next iff it was invoked no later than the earliest
// response among the ops not yet linearized. While such an op exists, the
// pass linearizes one:
//
//   - a read that matches the bit, if there is one: moving it to the front
//     of any valid order breaks no real-time edge, since it may go next,
//     and changes no state, since it reads;
//   - otherwise the bit must flip, and of the updates that flip it and may
//     go next, the one with the earliest response w*: if a valid order
//     flips it first with w and w* comes later, swapping w and w* keeps
//     every state, and every op between them was invoked no later than w*
//     responded, so no later than w did.
//
// The pass therefore gets stuck only when no valid order exists. It costs
// O(n log n) per key, however many of the ops overlap.
package history

import (
	"cmp"
	"container/heap"
	"fmt"
	"math"
	"slices"
	"sync/atomic"
)

// Kind is a recorded operation type.
type Kind int8

// Operation kinds.
const (
	KindSearch Kind = iota + 1
	KindInsert
	KindDelete
)

// String returns the kind's name.
func (k Kind) String() string {
	switch k {
	case KindSearch:
		return "search"
	case KindInsert:
		return "insert"
	case KindDelete:
		return "delete"
	default:
		return "unknown"
	}
}

// Op is one completed operation: its kind, key, boolean result (present /
// succeeded), and its invocation/response timestamps drawn from a global
// atomic clock.
type Op struct {
	Kind   Kind
	Key    int
	Result bool
	Start  int64
	End    int64
	Proc   int
}

func (o Op) String() string {
	return fmt.Sprintf("p%d %s(%d)=%t [%d,%d]", o.Proc, o.Kind, o.Key, o.Result, o.Start, o.End)
}

// Recorder collects operations from concurrent workers. Each worker must
// use its own Thread; the Recorder itself only hands out timestamps.
type Recorder struct {
	clock   atomic.Int64
	threads []*Thread
}

// NewRecorder returns a recorder for the given number of worker threads,
// each expecting at most opsPerThread operations.
func NewRecorder(threads, opsPerThread int) *Recorder {
	r := &Recorder{threads: make([]*Thread, threads)}
	for i := range r.threads {
		r.threads[i] = &Thread{rec: r, proc: i, ops: make([]Op, 0, opsPerThread)}
	}
	return r
}

// Thread returns worker i's private recording handle.
func (r *Recorder) Thread(i int) *Thread { return r.threads[i] }

// Ops merges all threads' operations. Call only after every worker has
// finished.
func (r *Recorder) Ops() []Op {
	var all []Op
	for _, t := range r.threads {
		all = append(all, t.ops...)
	}
	return all
}

// Thread records one worker's operations without synchronization beyond
// the shared clock.
type Thread struct {
	rec  *Recorder
	proc int
	ops  []Op
}

// Begin timestamps an invocation and returns the pending op.
func (t *Thread) Begin(kind Kind, key int) Op {
	return Op{Kind: kind, Key: key, Proc: t.proc, Start: t.rec.clock.Add(1)}
}

// End timestamps the response and records the completed op.
func (t *Thread) End(op Op, result bool) {
	op.Result = result
	op.End = t.rec.clock.Add(1)
	t.ops = append(t.ops, op)
}

// Violation describes a non-linearizable sub-history: Segment holds the
// key's pending ops at the point where none of them could be linearized.
type Violation struct {
	Key     int
	Segment []Op
}

func (v *Violation) Error() string {
	return fmt.Sprintf("history not linearizable for key %d (%d pending ops, none can go next)", v.Key, len(v.Segment))
}

// Check verifies that ops form a linearizable dictionary history starting
// from the empty dictionary. It returns nil if linearizable and a
// *Violation if not. Every op must have Start <= End, as recorded ones do.
func Check(ops []Op) error {
	ops = slices.Clone(ops)
	slices.SortFunc(ops, func(a, b Op) int {
		return cmp.Or(cmp.Compare(a.Key, b.Key), cmp.Compare(a.Start, b.Start))
	})
	for lo := 0; lo < len(ops); {
		hi := lo + 1
		for hi < len(ops) && ops[hi].Key == ops[lo].Key {
			hi++
		}
		if err := checkKey(ops[lo:hi]); err != nil {
			return err
		}
		lo = hi
	}
	return nil
}

const never = math.MaxInt64

// checkKey runs the greedy pass over one key's ops, sorted by Start. The
// bit's state indexes everything: updates[v] holds the pending successful
// updates that set the bit to v (deletes, inserts) and reads[v] the pending
// reads of v, which wait for the bit to become v, so reads[state] is empty.
func checkKey(ops []Op) error {
	state := 0
	var updates [2]byEnd
	var reads [2][]Op
	readEnd := [2]int64{never, never} // earliest response in reads[v]
	for next := 0; ; {
		// Admit, in invocation order, every op invoked no later than the
		// earliest response among the pending ops. An admitted op stays
		// admissible, since each op admitted after it responds no earlier
		// than it was invoked, so one forward pointer suffices.
		minEnd := min(readEnd[0], readEnd[1], updates[0].minEnd(), updates[1].minEnd())
		for ; next < len(ops) && ops[next].Start <= minEnd; next++ {
			o := ops[next]
			v, update, ok := effect(o)
			switch {
			case !ok:
				return &Violation{Key: o.Key, Segment: []Op{o}}
			case update:
				heap.Push(&updates[v], o)
			case v == state:
				continue // a read of the current state linearizes at once
			default:
				reads[v] = append(reads[v], o)
				readEnd[v] = min(readEnd[v], o.End)
			}
			minEnd = min(minEnd, o.End)
		}
		// No admitted read matches the bit, so it must flip: the flipping
		// update with the earliest response goes next.
		flip := 1 - state
		if len(updates[flip]) == 0 {
			if len(reads[flip]) == 0 && len(updates[state]) == 0 {
				return nil // nothing pending, so every op was admitted
			}
			seg := slices.Concat(reads[flip], updates[0], updates[1])
			slices.SortFunc(seg, func(a, b Op) int { return cmp.Compare(a.Start, b.Start) })
			return &Violation{Key: seg[0].Key, Segment: seg}
		}
		heap.Pop(&updates[flip])
		state = flip
		reads[state], readEnd[state] = reads[state][:0], never
	}
}

// effect classifies o against the presence bit: a successful insert sets
// it to 1 and a successful delete to 0 (update), while a search reads its
// result, a failed insert reads 1 and a failed delete reads 0. ok is false
// for an unknown kind, which no state admits.
func effect(o Op) (v int, update, ok bool) {
	switch o.Kind {
	case KindSearch:
		if o.Result {
			return 1, false, true
		}
		return 0, false, true
	case KindInsert:
		return 1, o.Result, true
	case KindDelete:
		return 0, o.Result, true
	default:
		return 0, false, false
	}
}

// byEnd is a min-heap of ops by response time (container/heap).
type byEnd []Op

func (h byEnd) Len() int           { return len(h) }
func (h byEnd) Less(i, j int) bool { return h[i].End < h[j].End }
func (h byEnd) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *byEnd) Push(x any)        { *h = append(*h, x.(Op)) }
func (h *byEnd) Pop() any {
	o := (*h)[len(*h)-1]
	*h = (*h)[:len(*h)-1]
	return o
}

func (h byEnd) minEnd() int64 {
	if len(h) == 0 {
		return never
	}
	return h[0].End
}
