package core

// searchToLevel is SEARCHTOLEVEL_SL: locate the two consecutive nodes on
// level v with keys closest to k. It descends from the highest level in
// use, traversing each level with searchRight. In strict mode it performs
// the paper's "k - epsilon" search (curr.key < k <= next.key); otherwise
// curr.key <= k < next.key.
func (l *SkipList[K, V]) searchToLevel(p *Proc, k K, v int, strict bool) (*SLNode[K, V], *SLNode[K, V]) {
	curr, lv := l.findStart(v)
	for lv > v {
		curr, _ = l.searchRight(p, k, curr, strict)
		curr = curr.down
		lv--
	}
	return l.searchRight(p, k, curr, strict)
}

// findStart returns the head-tower node to begin a descending search from:
// the lowest head node whose level is at least v and whose level above
// holds no interior nodes. Because interior towers are capped at
// maxLevel-1, the climb always terminates at or below the top head node.
func (l *SkipList[K, V]) findStart(v int) (*SLNode[K, V], int) {
	lv := 1
	for lv < l.maxLevel && (lv < v || l.heads[lv].right() != l.tails[lv]) {
		lv++
	}
	return l.heads[lv-1], lv
}

// searchRight is SEARCHRIGHT: traverse one level rightward from curr until
// the key bound is passed. Like the plain list's SearchFrom it physically
// deletes logically deleted (marked) successors, and - this is the skip
// list's extra duty from Section 4 - it performs the full three-step
// deletion of any superfluous node it encounters (a node whose tower root
// is marked), so that searches never repeatedly traverse dead towers.
func (l *SkipList[K, V]) searchRight(p *Proc, k K, curr *SLNode[K, V], strict bool) (*SLNode[K, V], *SLNode[K, V]) {
	st := p.StatsOrNil()
	next := curr.right()
	for l.nodeLeq(next, k, strict) {
		nextSucc := next.loadSucc()
		if nextSucc.marked() {
			// Same recovery as SearchFrom lines 3-6: either help the
			// physical deletion, or step through a marked chain when
			// curr itself was marked first.
			currSucc := curr.loadSucc()
			if !(currSucc.marked() && currSucc.right() == next) {
				if currSucc.right() == next {
					l.slHelpMarked(p, curr, next)
				}
				next = curr.right()
				st.IncNext()
				continue
			}
		} else if root := next.towerRoot; root != next && root.marked() {
			// next is superfluous (Section 4): its tower's root is marked
			// but next is not yet marked on this level. On level 1 next
			// is its own root and nextSucc already said it is unmarked;
			// a sentinel's root is a sentinel, which is never marked.
			// Perform all three deletion steps here.
			pred, status, _ := l.tryFlagNode(p, curr, next)
			if status == flagStatusIn {
				l.slHelpFlagged(p, pred, next)
			}
			// tryFlagNode may have moved us; resume from an unmarked
			// position. (pred is unmarked when status == flagStatusIn.)
			if status == flagStatusIn {
				curr = pred
			}
			for curr.marked() {
				st.IncBacklink()
				p.At(PtBacklinkStep)
				curr = curr.backlink.Load()
			}
			next = curr.right()
			st.IncNext()
			continue
		}
		curr = next
		st.IncCurr()
		next = curr.right()
		st.IncNext()
	}
	p.At(PtSearchDone)
	return curr, next
}
