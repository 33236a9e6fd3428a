package core

import (
	"repro/internal/ebr"
	"repro/internal/telemetry"
)

// This file is the read side of the batches, a List's as well as a skip
// list's: a SHARED DESCENT.
// The sorted keys of a GetBatch go down the structure together, in groups
// of descentWidth, instead of one after another.
//
// The keys of a group that stand on the same tower on the same level form
// a segment. A segment takes each step once for all its keys: it looks at
// its tower's successor, and the keys ordering at or after the successor
// step onto it while the keys ordering before it go down a level on the
// tower they stand on - the segment splits where the successor's key
// separates its keys, and nowhere else. The steps a group pays are
// therefore the UNION of its keys' search paths, where point searches pay
// the sum and a threaded finger pays each key's path from the level its
// predecessor's brackets stop holding.
//
// Correctness is the paper's SEARCHFROM lemma once more (finger.go has
// used it since fingers exist): each key, followed on its own, performs
// the reads of an ordinary descent - successor pointer, successor key,
// the successor's word on the level, its root's word - in an ordinary
// order; that other keys of its segment use the same reads changes
// nothing any of them can tell. What a key never does here is write. A
// successor found marked, or superfluous (its root marked, Section 4),
// ends the shared path for exactly the keys that would step onto it: each
// finishes alone through searchRight from the tower and level it stands
// on, a start SEARCHFROM accepts, and searchRight helps the deletion
// along as it always has. A batched Get is linearized where a point Get
// is: at the read that found its tower's level-1 word unmarked (for a
// group resumed on that very tower, the read that recovered it from the
// record), or, for an absent key, while its level-1 predecessor pointed
// past it.
//
// The point of going down together is memory-level parallelism. On a
// structure larger than the cache every step of a lone search is a cache
// miss that the next step depends on. A round of the descent first loads
// the successor header of EVERY live segment and only then branches on
// any of them, so a group keeps up to descentWidth independent misses in
// flight where a point search, or a finger, has one. A lone segment - one
// key, a List's level, or the last keys of a group - has no other misses
// to overlap, so it steps like searchRight until a key parts from it,
// without the bookkeeping that keeps several segments in step.
//
// Where a group starts is the other half of its cost. The first group of a
// batch starts at the head; each later one resumes, on the list the
// previous group's last key went down, from the brackets that key went
// down through - a SkipFinger's record, kept across the groups of one
// call and rebound when the list changes. The climb is the finger's: it
// stops on the lowest level whose bracket covers the segment's last key,
// on a predecessor ordered before its first key (strictly above level 1,
// so that a dead tower is met as a successor and never stood on). On a
// List that is the difference between one walk from the head per batch
// and one per sixteen keys.

// descentWidth is how many keys descend together. Measured at 8, 16 and 32
// on 2^19 keys (DESIGN.md Section 8): 8 leaves misses on the table - about
// a tenth slower at every batch width - while 32 is no faster than 16 on
// uniform keys, the core having no more misses to keep in flight, and
// gains only on clustered batches wider than 16, by sharing more steps,
// for twice the segment state a call clears and a round walks.
const descentWidth = 16

// descentSeg is one segment: keys [lo, hi) of the batch stand on curr at
// level lv, and next is curr's successor there.
type descentSeg[K comparable, V any] struct {
	l    *SkipList[K, V]
	curr *SLNode[K, V]
	next *SLNode[K, V]
	// last marks the segment holding the group's last key in a batch of
	// several groups: it writes the brackets that key goes down through.
	last bool
	// next's word on lv and its level-1 word, loaded at the top of the
	// round for every segment before any segment acts on them.
	nextSucc, rootSucc word[SLNode[K, V]]
	lv                 int // 0 once the segment is finished
	lo, hi             int
}

// GetBatchAcross looks up keys, which must already be sorted, in lists:
// keys[cuts[i]:cuts[i+1]] are looked up in lists[i], so len(cuts) is
// len(lists)+1. Results are positional, and vals and found may be nil, as
// for SkipList.GetBatch - which is this function over one list. Several
// lists (the shards of a sharded.Map) descend in the same rounds: a
// group is descentWidth consecutive keys, whatever lists they fall in.
// The lists must order keys alike and share one telemetry recorder, if
// any, as a Map's shards do. Returns the number of keys found.
func GetBatchAcross[K comparable, V any](p *Proc, lists []*SkipList[K, V], cuts []int, keys []K, vals []V, found []bool) int {
	// rec, in a batch of several groups, is where the previous group's last
	// key went down; its pin keeps those towers out of the recycler between
	// groups.
	var rec *SkipFinger[K, V]
	if len(keys) > descentWidth {
		rec = new(SkipFinger[K, V])
	}
	n := 0
	for lo := 0; lo < len(keys); lo += descentWidth {
		n += getGroup(p, rec, lists, cuts, keys, lo, min(lo+descentWidth, len(keys)), vals, found)
	}
	if rec != nil {
		rec.pin.Unpin()
	}
	return n
}

// getGroup is one descent group in its op scope: the group is recorded
// once, with its exact steps and every member's latency taken as its
// share of the group's.
func getGroup[K comparable, V any](p *Proc, rec *SkipFinger[K, V], lists []*SkipList[K, V], cuts []int, keys []K, lo, hi int, vals []V, found []bool) int {
	sc, p := beginOp(lists[0].tel, p, telemetry.OpGet, hi-lo)
	n := descend(p, rec, lists, cuts, keys, lo, hi, vals, found)
	sc.end()
	return n
}

// descend runs one group, keys[lo:hi] with hi-lo <= descentWidth, to
// completion. rec, when not nil, is the bracket record of the batch: the
// group's first segment resumes from it when it is on rec's list, and the
// segment holding the group's last key writes it.
func descend[K comparable, V any](p *Proc, rec *SkipFinger[K, V], lists []*SkipList[K, V], cuts []int, keys []K, lo, hi int, vals []V, found []bool) int {
	st := p.StatsOrNil()
	var segs [descentWidth]descentSeg[K, V]
	var pins [descentWidth]*ebr.Pin
	live := 0
	// One segment per list the group touches. The first key on a list
	// counts as a finger miss, the others as hits.
	for li := 0; lo < hi; live++ {
		for cuts[li+1] <= lo {
			li++
		}
		l, end := lists[li], min(cuts[li+1], hi)
		pins[live] = l.opPin(p)
		s := &segs[live]
		*s = descentSeg[K, V]{l: l, lo: lo, hi: end, last: rec != nil && end == hi}
		if rec != nil && rec.l == l {
			s.curr, s.lv = rec.climb(p, keys[lo], keys[end-1], 1, false)
		}
		if s.lv == 0 {
			s.curr, s.lv = l.head, l.findStart(1)
			if s.last {
				rec.bind(p, l, s.lv)
			}
		}
		s.next = s.curr.cell(s.lv).right()
		if st != nil {
			st.FingerMisses++
			st.FingerHits += uint64(end - lo - 1)
		}
		lo = end
	}
	touched := live

	n := 0
	for live > 0 {
		if live == 1 {
			segs[0].stepAlone(p, keys)
		}
		for i := 0; i < live; i++ {
			s := &segs[i]
			s.nextSucc = s.next.cell(s.lv).loadSucc()
			s.rootSucc = s.next.loadSucc()
		}
		// Downwards, so that a slot refilled from the end of the array -
		// with a segment already handled, or one made in this round, whose
		// successor is not loaded yet - is not visited again.
		for i := live - 1; i >= 0; i-- {
			s := &segs[i]
			l, next, end := s.l, s.next, s.hi
			// keys[s.lo:split] order before next and go down;
			// keys[split:end] would step onto it.
			split := end
			if l.cmpNode(next, keys[end-1]) <= 0 {
				for split = s.lo; split < end-1 && l.cmpNode(next, keys[split]) > 0; split++ {
				}
			}
			if split == end {
				n += s.goDown(rec, keys, vals, found)
			} else {
				if split > s.lo {
					below := &segs[live]
					*below = *s
					below.hi, below.last, s.lo = split, false, split
					n += below.goDown(rec, keys, vals, found)
					if below.lv > 0 {
						live++
					}
				}
				if s.nextSucc.marked() || s.lv > 1 && s.rootSucc.marked() {
					for j := split; j < end; j++ {
						n += l.getFrom(p, s.last && j == end-1, rec, s.curr, s.lv, keys, j, vals, found)
					}
					s.lv = 0
				} else {
					// The word that said next is unmarked also names
					// next's successor: searchRight's re-read after the
					// step, had it come right behind the first read.
					s.curr, s.next = next, s.nextSucc.right()
					st.IncCurr()
					st.IncNext()
				}
			}
			if s.lv == 0 {
				live--
				*s = segs[live]
			}
		}
		p.At(PtSearchDone)
	}
	for i := 0; i < touched; i++ {
		pins[i].Unpin()
	}
	return n
}

// bind points the record at list l for a segment about to start at the top
// of l's head tower, on level top: the levels below are written as the
// segment's last key goes down, and a pin on l keeps the towers they name
// from being recycled before the next group has climbed them.
func (f *SkipFinger[K, V]) bind(p *Proc, l *SkipList[K, V], top int) {
	if f.l != l {
		f.pin.Unpin()
		f.l, f.pin = l, l.opPin(p)
	}
	f.top = top
}

// stepAlone takes the rounds of a lone segment in a tight loop: while its
// first key orders at or after next, and next is neither marked nor
// superfluous, the segment steps onto it - each step a round of its own,
// with its PtSearchDone. It returns where a key parts from the segment or
// its successor is dying, for the round to handle.
func (s *descentSeg[K, V]) stepAlone(p *Proc, keys []K) {
	st := p.StatsOrNil()
	l, first := s.l, keys[s.lo]
	for l.cmpNode(s.next, first) <= 0 {
		w := s.next.cell(s.lv).loadSucc()
		if w.marked() || s.lv > 1 && s.next.marked() {
			return
		}
		s.curr, s.next = s.next, w.right()
		st.IncCurr()
		st.IncNext()
		p.At(PtSearchDone)
	}
}

// goDown moves the segment, all of whose keys order before next, down its
// tower to the first level on which the tower's successor is another one
// than next - a level on which it is next again has nothing to compare -
// or, from level 1, records that the keys' searches end on the tower and
// retires the segment by setting its level to 0. Every level it leaves is
// a bracket of its keys, which the group's last segment writes in rec.
func (s *descentSeg[K, V]) goDown(rec *SkipFinger[K, V], keys []K, vals []V, found []bool) (n int) {
	for {
		if s.last {
			rec.prevs[s.lv-1], rec.nexts[s.lv-1] = s.curr, s.next
		}
		if s.lv--; s.lv == 0 {
			break
		}
		if r := s.curr.cell(s.lv).right(); r != s.next {
			s.next = r
			return 0
		}
	}
	for j := s.lo; j < s.hi; j++ {
		n += s.l.answer(s.curr, keys, j, vals, found)
	}
	return n
}

// getFrom finishes the search for keys[j] alone, by the ordinary descent
// from tower curr on level lv, and records the answer - and, when last is
// set, the brackets the key went down through in rec.
func (l *SkipList[K, V]) getFrom(p *Proc, last bool, rec *SkipFinger[K, V], curr *SLNode[K, V], lv int, keys []K, j int, vals []V, found []bool) int {
	for ; lv >= 1; lv-- {
		var next *SLNode[K, V]
		curr, next = l.searchRight(p, keys[j], curr, lv, false)
		if last {
			rec.prevs[lv-1], rec.nexts[lv-1] = curr, next
		}
	}
	return l.answer(curr, keys, j, vals, found)
}

// answer records the result for keys[j] of a search that ended on the
// level-1 node curr, and returns 1 when the key was found.
func (l *SkipList[K, V]) answer(curr *SLNode[K, V], keys []K, j int, vals []V, found []bool) int {
	ok := l.cmpNode(curr, keys[j]) == 0
	if vals != nil {
		var v V
		if ok {
			v = curr.val
		}
		vals[j] = v
	}
	if found != nil {
		found[j] = ok
	}
	if ok {
		return 1
	}
	return 0
}
