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

// slHelpMarked physically deletes the marked node delNode and unflags
// prevNode with one C&S - HELPMARKED lifted to a skip-list level.
func (l *SkipList[K, V]) slHelpMarked(p *Proc, prevNode, delNode *SLNode[K, V]) {
	p.StatsOrNil().IncHelp()
	next := delNode.right() // frozen: delNode is marked
	prevSucc := prevNode.loadSucc()
	if prevSucc.right() != delNode || prevSucc.marked() || !prevSucc.flagged() {
		return
	}
	p.At(PtBeforePhysicalCAS)
	ok := prevNode.succ.cas(prevSucc, clean(next))
	p.StatsOrNil().IncCAS(ok)
	if ok {
		// Unique removal point of delNode from its level. Reclamation
		// schemes retire per level-node — and see the root FIRST: Delete
		// unlinks the level-1 node to linearize, then sweeps the upper
		// levels, whose nodes still hold down/towerRoot edges into the
		// root. The recycler therefore defers the whole tower until its
		// last unlink (towerRetire).
		p.RetireNode(delNode)
		if l.retire != nil {
			l.retire(delNode)
		}
		l.towerRetire(p, delNode)
	}
}

// slHelpFlagged completes the deletion of delNode, the successor of the
// flagged node prevNode: backlink, mark, physical delete - HELPFLAGGED
// lifted to a skip-list level.
func (l *SkipList[K, V]) slHelpFlagged(p *Proc, prevNode, delNode *SLNode[K, V]) {
	p.StatsOrNil().IncHelp()
	p.At(PtHelpFlagged)
	delNode.backlink.Store(prevNode)
	if !delNode.marked() {
		l.slTryMark(p, delNode)
	}
	l.slHelpMarked(p, prevNode, delNode)
}

// slTryMark marks delNode, helping any deletion that flagged it first -
// TRYMARK lifted to a skip-list level. Marking a root node is the
// linearization point of the key's deletion.
func (l *SkipList[K, V]) slTryMark(p *Proc, delNode *SLNode[K, V]) {
	st := p.StatsOrNil()
	var bo casBackoff
	for {
		s := delNode.loadSucc()
		if s.marked() {
			return
		}
		if s.flagged() {
			l.slHelpFlagged(p, delNode, s.right())
			continue
		}
		p.At(PtBeforeMarkCAS)
		ok := delNode.succ.cas(s, marked(s.right()))
		st.IncCAS(ok)
		if ok {
			if delNode.isRoot() {
				l.size.Add(-1)
			}
			return
		}
		bo.onFail(st)
	}
}

// tryFlagNode attempts to flag the predecessor of target on target's
// level - TRYFLAG adapted to the skip list, where the recovery re-search
// uses searchRight (and therefore also clears superfluous towers).
// prev is the last node known to precede target on this level.
//
// It returns the (possibly updated) predecessor, a status saying whether
// target is still in the level's list, and whether this call placed the
// flag.
func (l *SkipList[K, V]) tryFlagNode(p *Proc, prev, target *SLNode[K, V]) (*SLNode[K, V], flagStatus, bool) {
	st := p.StatsOrNil()
	var bo casBackoff
	for {
		prevSucc := prev.loadSucc()
		if prevSucc == flagged(target) {
			return prev, flagStatusIn, false // already flagged
		}
		if prevSucc == clean(target) {
			p.At(PtBeforeFlagCAS)
			ok := prev.succ.cas(prevSucc, flagged(target))
			st.IncCAS(ok)
			if ok {
				return prev, flagStatusIn, true
			}
			result := prev.loadSucc()
			if result == flagged(target) {
				return prev, flagStatusIn, false
			}
			bo.onFail(st)
		} else {
			st.IncCAS(false)
			bo.onFail(st)
		}
		for prev.marked() {
			st.IncBacklink()
			p.At(PtBacklinkStep)
			prev = prev.backlink.Load()
		}
		var delNode *SLNode[K, V]
		prev, delNode = l.searchRight(p, target.key, prev, true)
		if delNode != target {
			return prev, flagStatusDeleted, false // target got deleted
		}
	}
}

// insertNode inserts newNode between prev and next on newNode's level -
// the INSERT loop of Figure 5 lifted to a skip-list level, with the
// re-search running on this level only. It returns the final predecessor
// and whether newNode was inserted; false means a node with the same key
// is already present on this level.
func (l *SkipList[K, V]) insertNode(p *Proc, newNode, prev, next *SLNode[K, V]) (*SLNode[K, V], bool) {
	st := p.StatsOrNil()
	if l.cmpNode(prev, newNode.key) == 0 {
		return prev, false // duplicate key on this level
	}
	var bo casBackoff
	for {
		prevSucc := prev.loadSucc()
		if prevSucc.flagged() {
			l.slHelpFlagged(p, prev, prevSucc.right())
		} else if !prevSucc.marked() && prevSucc.right() == next {
			newNode.succ.store(clean(next))
			p.At(PtBeforeInsertCAS)
			ok := prev.succ.cas(prevSucc, clean(newNode))
			st.IncCAS(ok)
			if ok {
				if newNode.isRoot() {
					l.size.Add(1) // linearization point of the insertion
				}
				return prev, true
			}
			p.At(PtAfterInsertCASFail)
			bo.onFail(st)
			result := prev.loadSucc()
			if result.flagged() {
				l.slHelpFlagged(p, prev, result.right())
			}
			for prev.marked() {
				st.IncBacklink()
				p.At(PtBacklinkStep)
				prev = prev.backlink.Load()
			}
		} else {
			st.IncCAS(false)
			bo.onFail(st)
			if prevSucc.marked() {
				for prev.marked() {
					st.IncBacklink()
					p.At(PtBacklinkStep)
					prev = prev.backlink.Load()
				}
			}
		}
		prev, next = l.searchRight(p, newNode.key, prev, false)
		if l.cmpNode(prev, newNode.key) == 0 {
			return prev, false
		}
	}
}

// deleteNode runs the three deletion steps against delNode on its level -
// the body of DELETE after the search (Figure 4). It reports whether this
// call's deletion succeeded (false: delNode was already being deleted or
// was gone).
func (l *SkipList[K, V]) deleteNode(p *Proc, prev, delNode *SLNode[K, V]) bool {
	pred, status, won := l.tryFlagNode(p, prev, delNode)
	if status == flagStatusIn {
		l.slHelpFlagged(p, pred, delNode)
	}
	return won
}
