// Package history records concurrent dictionary histories and checks them
// for linearizability (Herlihy & Wing 1990), the correctness condition the
// paper proves for its implementations (Section 3.3), and, across one
// crash, for durable linearizability (Izraelevitz, Mendes & Scott 2016).
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
//
// A crash cuts the history in two. An op whose reply never came is
// recorded with Abandon: it is pending and its result unknown, and its End
// is when its thread saw the crash, which came before the earliest such
// End, C. Every op invoked by C took effect before C, if at all, and every
// op invoked after C was served after the restart, so each key's
// pre-crash ops precede its post-crash ones. A pending insert or delete is
// optional: it takes effect at most once, between its invocation and C,
// or never; a pending search, or one invoked after C, is dropped.
//
// Before the crash the pass changes twice. A pending update never bounds
// the earliest response, since it may be dropped, and it flips the bit
// only when no completed update can: a valid order that flips first with
// pending p while completed w* may go next stays valid with p and w*
// swapped, since no pre-crash op is invoked after C, so p may go anywhere.
// For the same reason one spare pending update is as good as another. The
// pass ends in a state b, and the crash state may be b, or 1-b if a spare
// update flips to it (a read of the crash state invoked after everything
// would go last and need exactly that). The post-crash ops run the plain
// pass from each possible crash state. Letting a pending op take effect
// anywhere in its own interval instead would make the pass inexact: an op
// invoked between two pending Ends expires one of them mid-pass, and
// neither read-first nor completed-first survives that.
package history

import (
	"cmp"
	"container/heap"
	"fmt"
	"math"
	"slices"
	"sort"
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

// Op is one recorded operation: its kind, key, boolean result (present /
// succeeded), and its invocation/response timestamps drawn from a global
// atomic clock. A Pending op was abandoned at a crash: End is when its
// thread gave up, and Result means nothing. Value is what a search read or
// an insert wrote, for drivers that check values; Check reads presence
// only.
type Op struct {
	Kind    Kind
	Key     int
	Result  bool
	Pending bool
	Start   int64
	End     int64
	Proc    int
	Value   string
}

func (o Op) String() string {
	if o.Pending {
		return fmt.Sprintf("p%d %s(%d) pending [%d,%d]", o.Proc, o.Kind, o.Key, o.Start, o.End)
	}
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

// Now reads the clock: the number of invocations and responses stamped so
// far.
func (r *Recorder) Now() int64 { return r.clock.Load() }

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

// Abandon records ops as pending: their replies never arrived because the
// server crashed. Each End is stamped as End stamps it, after the crash and
// before any op invoked once the thread has given up.
func (t *Thread) Abandon(ops ...Op) {
	for _, op := range ops {
		op.Pending = true
		op.End = t.rec.clock.Add(1)
		t.ops = append(t.ops, op)
	}
}

// Violation describes a non-linearizable sub-history: Segment holds the
// key's unlinearized ops at the point where none of them could go next.
type Violation struct {
	Key     int
	Segment []Op
}

func (v *Violation) Error() string {
	return fmt.Sprintf("history not linearizable for key %d (%d ops left, none can go next)", v.Key, len(v.Segment))
}

// Check verifies that ops form a linearizable dictionary history starting
// from the empty dictionary, durably so across the crash that its pending
// ops mark, if any. It returns nil if so and a *Violation if not. Every op
// must have Start <= End, as recorded ones do.
func Check(ops []Op) error {
	crash := int64(never)
	for _, o := range ops {
		if o.Pending {
			crash = min(crash, o.End)
		}
	}
	ops = slices.Clone(ops)
	slices.SortFunc(ops, func(a, b Op) int {
		return cmp.Or(cmp.Compare(a.Key, b.Key), cmp.Compare(a.Start, b.Start))
	})
	for lo := 0; lo < len(ops); {
		hi := lo + 1
		for hi < len(ops) && ops[hi].Key == ops[lo].Key {
			hi++
		}
		// The key's ops invoked by the crash, then the ones after it,
		// less the pending ones, which took no effect.
		cut := lo + sort.Search(hi-lo, func(i int) bool { return ops[lo+i].Start > crash })
		state, spare, err := checkKey(ops[lo:cut], 0)
		if err == nil {
			post := slices.DeleteFunc(ops[cut:hi], func(o Op) bool { return o.Pending })
			if _, _, err = checkKey(post, state); err != nil && spare[1-state] > 0 {
				_, _, err = checkKey(post, 1-state)
			}
		}
		if err != nil {
			return err
		}
		lo = hi
	}
	return nil
}

const never = math.MaxInt64

// checkKey runs the greedy pass over one key's ops, sorted by Start, from
// the given state, and returns the state it ends in and the spare pending
// updates. The bit's state indexes everything: updates[v] holds the
// unlinearized successful updates that set the bit to v (deletes, inserts),
// reads[v] the unlinearized reads of v, which wait for the bit to become v,
// so reads[state] is empty, and spare[v] counts the admitted pending
// updates that set it to v and are still unused.
func checkKey(ops []Op, state int) (int, [2]int, error) {
	var updates [2]byEnd
	var reads [2][]Op
	var spare [2]int
	readEnd := [2]int64{never, never} // earliest response in reads[v]
	for next := 0; ; {
		// Admit, in invocation order, every op invoked no later than the
		// earliest response among the unlinearized completed ops. An
		// admitted op stays admissible, since each op admitted after it
		// responds no earlier than it was invoked, so one forward pointer
		// suffices.
		minEnd := min(readEnd[0], readEnd[1], updates[0].minEnd(), updates[1].minEnd())
		for ; next < len(ops) && ops[next].Start <= minEnd; next++ {
			o := ops[next]
			v, update, ok := effect(o)
			switch {
			case !ok:
				return state, spare, &Violation{Key: o.Key, Segment: []Op{o}}
			case o.Pending:
				if o.Kind != KindSearch {
					spare[v]++
				}
				continue
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
		// No admitted read matches the bit, so it must flip: the completed
		// flipping update with the earliest response goes next, or else a
		// spare pending one.
		flip := 1 - state
		switch {
		case len(updates[flip]) > 0:
			heap.Pop(&updates[flip])
		case len(reads[flip]) == 0 && len(updates[state]) == 0:
			return state, spare, nil // nothing left to linearize, so every op was admitted
		case spare[flip] > 0:
			spare[flip]--
		default:
			seg := slices.Concat(reads[flip], updates[0], updates[1])
			slices.SortFunc(seg, func(a, b Op) int { return cmp.Compare(a.Start, b.Start) })
			return state, spare, &Violation{Key: seg[0].Key, Segment: seg}
		}
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
