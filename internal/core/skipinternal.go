package core

// The functions below are the paper's list routines (Figures 3-5), run on
// one level of the skip list: every node argument is a tower and lv says
// which of its cells - which instance of the linked list - the call works
// on. A List runs them on level 1 only; the skip list on every level, and
// searchRight (skipsearch.go) adds the one duty Section 4 gives a level
// above the first.

// helpMarked physically deletes the marked node delNode and unflags
// prevNode with one C&S (Figure 3, HELPMARKED).
func (l *SkipList[K, V]) helpMarked(p *Proc, prevNode, delNode *SLNode[K, V], lv int) {
	p.StatsOrNil().IncHelp()
	next := delNode.cell(lv).right() // frozen: delNode is marked
	prev := prevNode.cell(lv)
	prevSucc := prev.loadSucc()
	if prevSucc.right() != delNode || prevSucc.marked() || !prevSucc.flagged() {
		return // someone already completed (or the state moved on)
	}
	p.At(PtBeforePhysicalCAS)
	ok := prev.succ.cas(prevSucc, clean(next))
	p.StatsOrNil().IncCAS(ok)
	if ok {
		// Unique removal point of delNode from this level. Reclamation
		// schemes hear of every level's unlink, with the tower as the
		// argument - level 1 usually FIRST: Delete unlinks the root to
		// linearize, then sweeps the upper levels, which live in the same
		// object. The recycler therefore holds the tower back until its
		// last unlink (towerRetire).
		p.RetireNode(delNode)
		if l.retire != nil {
			l.retire(delNode)
		}
		l.towerRetire(p, delNode)
	}
}

// helpFlagged completes the deletion of delNode, the successor of the
// flagged node prevNode: set the backlink, mark, then physically delete
// (Figure 4, HELPFLAGGED).
func (l *SkipList[K, V]) helpFlagged(p *Proc, prevNode, delNode *SLNode[K, V], lv int) {
	p.StatsOrNil().IncHelp()
	p.At(PtHelpFlagged)
	del := delNode.cell(lv)
	del.backlink.Store(prevNode)
	if !del.marked() {
		l.tryMark(p, delNode, lv)
	}
	l.helpMarked(p, prevNode, delNode, lv)
}

// tryMark marks delNode, helping any deletion that flagged it first
// (Figure 4, TRYMARK). On return delNode is marked. Marking a tower on
// level 1 is the linearization point of the key's deletion.
func (l *SkipList[K, V]) tryMark(p *Proc, delNode *SLNode[K, V], lv int) {
	st := p.StatsOrNil()
	del := delNode.cell(lv)
	for {
		s := del.loadSucc()
		if s.marked() {
			return
		}
		if s.flagged() {
			// Failure due to flagging: help that deletion first.
			l.helpFlagged(p, delNode, s.right(), lv)
			continue
		}
		p.At(PtBeforeMarkCAS)
		ok := del.succ.cas(s, marked(s.right()))
		st.IncCAS(ok)
		if ok {
			if lv == 1 {
				l.size.Add(-1)
			}
			return
		}
	}
}

// tryFlag attempts to flag the predecessor of target on level lv (Figure
// 5, TRYFLAG). prev is the last node known to precede target there. It
// returns:
//
//   - (pred, true) if this call flagged target's predecessor pred;
//   - (pred, false) if another process flagged it (that deletion will
//     report success);
//   - (nil, false) if target was deleted from the level.
//
// The recovery re-search is searchRight, which above level 1 also clears
// superfluous towers.
func (l *SkipList[K, V]) tryFlag(p *Proc, prev, target *SLNode[K, V], lv int) (*SLNode[K, V], bool) {
	st := p.StatsOrNil()
	for {
		pc := prev.cell(lv)
		prevSucc := pc.loadSucc()
		if prevSucc == flagged(target) {
			return prev, false // predecessor already flagged (lines 2-3)
		}
		if prevSucc == clean(target) {
			p.At(PtBeforeFlagCAS)
			ok := pc.succ.cas(prevSucc, flagged(target))
			st.IncCAS(ok)
			if ok {
				return prev, true // successful flagging (lines 5-6)
			}
			result := pc.loadSucc()
			if result == flagged(target) {
				return prev, false // concurrent flagging won (lines 7-8)
			}
		} else {
			// The paper's C&S at line 4 would have been attempted and
			// failed with this value.
			st.IncCAS(false)
		}
		// Possibly a failure due to marking: traverse backlinks to the
		// first unmarked node (lines 9-10), then re-locate target's
		// predecessor (lines 11-13).
		prev = l.backtrack(p, prev, lv)
		var delNode *SLNode[K, V]
		prev, delNode = l.searchRight(p, target.key, prev, lv, true)
		if delNode != target {
			return nil, false // target got deleted
		}
	}
}

// insertNode inserts newNode between prev and next on level lv - the loop
// of INSERT (Figure 5), with the re-search running on this level only. It
// returns the final predecessor and whether newNode was inserted; false
// means a node with the same key is already present on this level.
func (l *SkipList[K, V]) insertNode(p *Proc, newNode, prev, next *SLNode[K, V], lv int) (*SLNode[K, V], bool) {
	st := p.StatsOrNil()
	if l.cmpNode(prev, newNode.key) == 0 {
		return prev, false // duplicate key on this level
	}
	newCell := newNode.cell(lv)
	for {
		pc := prev.cell(lv)
		prevSucc := pc.loadSucc()
		if prevSucc.flagged() {
			// The predecessor is flagged: help the corresponding deletion
			// complete before retrying (Insert lines 7-8).
			l.helpFlagged(p, prev, prevSucc.right(), lv)
		} else if !prevSucc.marked() && prevSucc.right() == next {
			// Insertion attempt (Insert lines 10-11): the C&S expects
			// (next_node, 0, 0), the word just loaded.
			newCell.succ.store(clean(next))
			p.At(PtBeforeInsertCAS)
			ok := pc.succ.cas(prevSucc, clean(newNode))
			st.IncCAS(ok)
			if ok {
				if lv == 1 {
					l.size.Add(1) // linearization point of the insertion
				}
				return prev, true
			}
			// Failure (Insert lines 14-18): inspect the value that beat us
			// and recover accordingly.
			p.At(PtAfterInsertCASFail)
			result := pc.loadSucc()
			if result.flagged() {
				l.helpFlagged(p, prev, result.right(), lv)
			}
			prev = l.backtrack(p, prev, lv)
		} else {
			// The successor field changed since our search: redirected,
			// marked, or both. Walk backlinks past any marked nodes, then
			// re-search from there (never from the head).
			st.IncCAS(false) // the paper's C&S would have been attempted and failed
			if prevSucc.marked() {
				prev = l.backtrack(p, prev, lv)
			}
		}
		prev, next = l.searchRight(p, newNode.key, prev, lv, false) // Insert line 19
		if l.cmpNode(prev, newNode.key) == 0 {
			return prev, false // inserted concurrently (lines 20-22)
		}
	}
}

// deleteNode runs the three deletion steps against delNode on level lv -
// the body of DELETE after the search (Figure 4). It reports whether this
// call's deletion succeeded (false: delNode was already being deleted or
// was gone).
func (l *SkipList[K, V]) deleteNode(p *Proc, prev, delNode *SLNode[K, V], lv int) bool {
	pred, won := l.tryFlag(p, prev, delNode, lv)
	if pred != nil {
		l.helpFlagged(p, pred, delNode, lv)
	}
	return won
}
