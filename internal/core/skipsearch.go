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
// the key bound is passed. Like the plain list's SearchFrom it physically
// deletes logically deleted (marked) successors, and - this is the skip
// list's extra duty from Section 4 - it performs the full three-step
// deletion of any superfluous node it encounters (a node whose tower root
// is marked), so that searches never repeatedly traverse dead towers.
func (l *SkipList[K, V]) searchRight(p *Proc, k K, curr *SLNode[K, V], lv int, strict bool) (*SLNode[K, V], *SLNode[K, V]) {
	st := p.StatsOrNil()
	currCell := curr.cell(lv) // kept beside curr: one cell lookup per node visited
	next := currCell.right()
	for l.nodeLeq(next, k, strict) {
		nextCell := next.cell(lv)
		nextSucc := nextCell.loadSucc()
		if nextSucc.marked() {
			// Same recovery as SearchFrom lines 3-6: either help the
			// physical deletion, or step through a marked chain when
			// curr itself was marked first.
			currSucc := currCell.loadSucc()
			if !(currSucc.marked() && currSucc.right() == next) {
				if currSucc.right() == next {
					l.slHelpMarked(p, curr, next, lv)
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
			pred, status, _ := l.tryFlagNode(p, curr, next, lv)
			if status == flagStatusIn {
				l.slHelpFlagged(p, pred, next, lv)
			}
			// tryFlagNode may have moved us; resume from an unmarked
			// position. (pred is unmarked when status == flagStatusIn.)
			if status == flagStatusIn {
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
