package core

// flagStatus is the status component of TryFlagNode's result.
type flagStatus int8

const (
	// flagStatusIn means target's predecessor is flagged (by us or by a
	// concurrent deletion) and target is still in the level's list.
	flagStatusIn flagStatus = iota + 1
	// flagStatusDeleted means target was physically deleted from the
	// level's list before a flag could be placed.
	flagStatusDeleted
)

// The functions below are the paper's list routines lifted to one level of
// the skip list: every node argument is a tower and lv says which of its
// cells - which instance of the linked list - the call works on.

// slHelpMarked physically deletes the marked node delNode and unflags
// prevNode with one C&S - HELPMARKED.
func (l *SkipList[K, V]) slHelpMarked(p *Proc, prevNode, delNode *SLNode[K, V], lv int) {
	p.StatsOrNil().IncHelp()
	next := delNode.cell(lv).right() // frozen: delNode is marked
	prev := prevNode.cell(lv)
	prevSucc := prev.loadSucc()
	if prevSucc.right() != delNode || prevSucc.marked() || !prevSucc.flagged() {
		return
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

// slHelpFlagged completes the deletion of delNode, the successor of the
// flagged node prevNode: backlink, mark, physical delete - HELPFLAGGED.
func (l *SkipList[K, V]) slHelpFlagged(p *Proc, prevNode, delNode *SLNode[K, V], lv int) {
	p.StatsOrNil().IncHelp()
	p.At(PtHelpFlagged)
	del := delNode.cell(lv)
	del.backlink.Store(prevNode)
	if !del.marked() {
		l.slTryMark(p, delNode, lv)
	}
	l.slHelpMarked(p, prevNode, delNode, lv)
}

// slTryMark marks delNode, helping any deletion that flagged it first -
// TRYMARK. Marking a tower on level 1 is the linearization point of the
// key's deletion.
func (l *SkipList[K, V]) slTryMark(p *Proc, delNode *SLNode[K, V], lv int) {
	st := p.StatsOrNil()
	del := delNode.cell(lv)
	var bo casBackoff
	for {
		s := del.loadSucc()
		if s.marked() {
			return
		}
		if s.flagged() {
			l.slHelpFlagged(p, delNode, s.right(), lv)
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
		bo.onFail(st)
	}
}

// tryFlagNode attempts to flag the predecessor of target on level lv -
// TRYFLAG adapted to the skip list, where the recovery re-search uses
// searchRight (and therefore also clears superfluous towers). prev is the
// last node known to precede target on this level.
//
// It returns the (possibly updated) predecessor, a status saying whether
// target is still in the level's list, and whether this call placed the
// flag.
func (l *SkipList[K, V]) tryFlagNode(p *Proc, prev, target *SLNode[K, V], lv int) (*SLNode[K, V], flagStatus, bool) {
	st := p.StatsOrNil()
	var bo casBackoff
	for {
		pc := prev.cell(lv)
		prevSucc := pc.loadSucc()
		if prevSucc == flagged(target) {
			return prev, flagStatusIn, false // already flagged
		}
		if prevSucc == clean(target) {
			p.At(PtBeforeFlagCAS)
			ok := pc.succ.cas(prevSucc, flagged(target))
			st.IncCAS(ok)
			if ok {
				return prev, flagStatusIn, true
			}
			result := pc.loadSucc()
			if result == flagged(target) {
				return prev, flagStatusIn, false
			}
			bo.onFail(st)
		} else {
			st.IncCAS(false)
			bo.onFail(st)
		}
		prev = l.backtrack(p, prev, lv)
		var delNode *SLNode[K, V]
		prev, delNode = l.searchRight(p, target.key, prev, lv, true)
		if delNode != target {
			return prev, flagStatusDeleted, false // target got deleted
		}
	}
}

// insertNode inserts newNode between prev and next on level lv - the
// INSERT loop of Figure 5, with the re-search running on this level only.
// It returns the final predecessor and whether newNode was inserted; false
// means a node with the same key is already present on this level.
func (l *SkipList[K, V]) insertNode(p *Proc, newNode, prev, next *SLNode[K, V], lv int) (*SLNode[K, V], bool) {
	st := p.StatsOrNil()
	if l.cmpNode(prev, newNode.key) == 0 {
		return prev, false // duplicate key on this level
	}
	newCell := newNode.cell(lv)
	var bo casBackoff
	for {
		pc := prev.cell(lv)
		prevSucc := pc.loadSucc()
		if prevSucc.flagged() {
			l.slHelpFlagged(p, prev, prevSucc.right(), lv)
		} else if !prevSucc.marked() && prevSucc.right() == next {
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
			p.At(PtAfterInsertCASFail)
			bo.onFail(st)
			result := pc.loadSucc()
			if result.flagged() {
				l.slHelpFlagged(p, prev, result.right(), lv)
			}
			prev = l.backtrack(p, prev, lv)
		} else {
			st.IncCAS(false)
			bo.onFail(st)
			if prevSucc.marked() {
				prev = l.backtrack(p, prev, lv)
			}
		}
		prev, next = l.searchRight(p, newNode.key, prev, lv, false)
		if l.cmpNode(prev, newNode.key) == 0 {
			return prev, false
		}
	}
}

// deleteNode runs the three deletion steps against delNode on level lv -
// the body of DELETE after the search (Figure 4). It reports whether this
// call's deletion succeeded (false: delNode was already being deleted or
// was gone).
func (l *SkipList[K, V]) deleteNode(p *Proc, prev, delNode *SLNode[K, V], lv int) bool {
	pred, status, won := l.tryFlagNode(p, prev, delNode, lv)
	if status == flagStatusIn {
		l.slHelpFlagged(p, pred, delNode, lv)
	}
	return won
}
