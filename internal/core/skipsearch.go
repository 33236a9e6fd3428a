package core

// searchToLevel is SEARCHTOLEVEL_SL: locate the two consecutive nodes on
// level v with keys closest to k. It descends from the highest level in
// use, traversing each level with searchRight; moving down a level keeps
// the tower and lowers the level. In strict mode it performs the paper's
// "k - epsilon" search (curr.key < k <= next.key); otherwise
// curr.key <= k < next.key.
func (l *SkipList[K, V]) searchToLevel(p *Proc, k K, v int, strict bool) (*SLNode[K, V], *SLNode[K, V]) {
	curr := l.head
	for lv := l.findStart(v); lv > v; lv-- {
		curr, _ = l.searchRight(p, k, curr, lv, strict)
	}
	return l.searchRight(p, k, curr, v, strict)
}

// findStart returns the level of the head tower to begin a descending
// search from: the lowest level that is at least v and whose level above
// holds no interior nodes. Because interior towers are capped at
// maxLevel-1, the climb always terminates at or below the top level.
func (l *SkipList[K, V]) findStart(v int) int {
	lv := 1
	for lv < l.maxLevel && (lv < v || l.head.cell(lv+1).right() != l.tail) {
		lv++
	}
	return lv
}

// searchRight is SEARCHRIGHT: traverse level lv rightward from curr until
// the key bound is passed. Starting from curr (whose key must order <= k,
// or < k in strict mode, and which must have been on the level at some
// point), it returns two nodes n1, n2 such that at some instant during the
// call n1 preceded n2 on the level and n1.key <= k < n2.key (strict:
// n1.key < k <= n2.key).
//
// On level 1 this is the paper's SEARCHFROM (Figure 3): it physically
// deletes every logically deleted (marked) node it passes by calling
// helpMarked. It differs in one respect: it re-checks the key bound after
// helping, so a marked successor ordered beyond k is left for the search
// that needs to pass it, where SEARCHFROM's inner loop would help it too.
// Above level 1 it has the skip list's extra duty from Section 4: it
// performs the full three-step deletion of any superfluous node it meets
// (a node whose tower root is marked), so that searches never repeatedly
// traverse dead towers.
func (l *SkipList[K, V]) searchRight(p *Proc, k K, curr *SLNode[K, V], lv int, strict bool) (*SLNode[K, V], *SLNode[K, V]) {
	st := p.StatsOrNil()
	currCell := curr.cell(lv) // kept beside curr: one cell lookup per node visited
	next := currCell.right()
	for l.nodeLeq(next, k, strict) {
		nextCell := next.cell(lv)
		nextSucc := nextCell.loadSucc()
		if nextSucc.marked() {
			// Ensure that either next is unmarked, or both curr and next
			// are marked and curr was marked earlier (SearchFrom lines
			// 3-6): help the physical deletion, or step through a marked
			// chain when curr itself was marked first.
			currSucc := currCell.loadSucc()
			if !(currSucc.marked() && currSucc.right() == next) {
				if currSucc.right() == next {
					l.helpMarked(p, curr, next, lv)
				}
				next = currCell.right()
				st.IncNext()
				continue
			}
		} else if lv > 1 && next.marked() {
			// next is superfluous (Section 4): its tower's root - the
			// level-1 word, beside the key just compared - is marked but
			// next is not yet marked on this level. On level 1 nextSucc
			// IS that word and already said unmarked; a sentinel is never
			// marked. Perform all three deletion steps here.
			pred, _ := l.tryFlag(p, curr, next, lv)
			if pred != nil {
				// pred is unmarked when tryFlag leaves next on the level;
				// otherwise resume from where we stood.
				l.helpFlagged(p, pred, next, lv)
				curr = pred
			}
			curr = l.backtrack(p, curr, lv)
			currCell = curr.cell(lv)
			next = currCell.right()
			st.IncNext()
			continue
		}
		curr, currCell = next, nextCell
		st.IncCurr()
		next = currCell.right()
		st.IncNext()
	}
	p.At(PtSearchDone)
	return curr, next
}

// backtrack walks level lv's backlinks from n to the first node that is
// not marked on that level - the paper's recovery from a failed C&S, and
// the validation step of a finger's remembered node.
func (l *SkipList[K, V]) backtrack(p *Proc, n *SLNode[K, V], lv int) *SLNode[K, V] {
	st := p.StatsOrNil()
	for c := n.cell(lv); c.marked(); c = n.cell(lv) {
		st.IncBacklink()
		p.At(PtBacklinkStep)
		n = c.backlink.Load()
	}
	return n
}
