// Package sundell implements a lock-free skip list in the style of
// Sundell and Tsigas ("Scalable and Lock-Free Concurrent Dictionaries",
// SAC 2004), the third design the paper compares against in Sections 2
// and 4. Its distinguishing features, as the paper describes them:
//
//   - individual levels use marking plus backlinks but no flag bits, so a
//     backlink may end up pointing at an already-marked node (recovery
//     chains can grow, unlike the paper's flagged design), and
//   - a search that detects a marked node in a tower it is traversing
//     marks ALL the nodes of that tower (tower marking); subsequent
//     searches physically delete marked nodes they encounter. This is
//     their alternative to the paper's rule of eagerly deleting
//     superfluous nodes, preventing repeated traversals of one backlink
//     chain.
//
// The representation mirrors internal/core (towers of nodes, Figure 6)
// so step counts are comparable; interior nodes additionally carry up
// pointers so that tower marking can climb from the root.
package sundell

import (
	"cmp"
	"sync/atomic"

	"repro/internal/heights"
	"repro/internal/instrument"
)

type nodeKind int8

const (
	kindInterior nodeKind = iota
	kindHead
	kindTail
)

// DefaultMaxLevel matches the other skip lists in this repository.
const DefaultMaxLevel = 32

// succ is the per-level composite successor field: (right, mark).
type succ[K cmp.Ordered, V any] struct {
	right  *Node[K, V]
	marked bool
}

// Node is one skip-list node (one level of one tower).
type Node[K cmp.Ordered, V any] struct {
	key   K
	val   V
	kind  nodeKind
	level int

	succ     atomic.Pointer[succ[K, V]]
	backlink atomic.Pointer[Node[K, V]]
	up       atomic.Pointer[Node[K, V]] // set as the tower grows

	down      *Node[K, V]
	towerRoot *Node[K, V]
	headUp    *Node[K, V] // static up link inside the head/tail towers
}

func (n *Node[K, V]) loadSucc() *succ[K, V] { return n.succ.Load() }

func (n *Node[K, V]) marked() bool {
	s := n.succ.Load()
	return s != nil && s.marked
}

func (n *Node[K, V]) right() *Node[K, V] { return n.succ.Load().right }

func (n *Node[K, V]) isRoot() bool { return n.towerRoot == n }

func (n *Node[K, V]) superfluous() bool {
	return n.kind == kindInterior && n.towerRoot.marked()
}

func (n *Node[K, V]) compareKey(k K) int {
	switch n.kind {
	case kindHead:
		return -1
	case kindTail:
		return 1
	default:
		return cmp.Compare(n.key, k)
	}
}

func (n *Node[K, V]) keyLeq(k K, strict bool) bool {
	c := n.compareKey(k)
	if strict {
		return c < 0
	}
	return c <= 0
}

// SkipList is the Sundell-Tsigas-style lock-free skip list.
type SkipList[K cmp.Ordered, V any] struct {
	maxLevel int
	heads    []*Node[K, V]
	tails    []*Node[K, V]
	seed     uint64 // of the tower heights (package heights)
	size     atomic.Int64
}

// New returns an empty skip list whose tower heights are
// heights.Key(seed, key), the shape internal/core builds from that seed.
func New[K cmp.Ordered, V any](maxLevel int, seed uint64) *SkipList[K, V] {
	if maxLevel < 2 {
		maxLevel = DefaultMaxLevel
	}
	l := &SkipList[K, V]{
		maxLevel: maxLevel,
		heads:    make([]*Node[K, V], maxLevel),
		tails:    make([]*Node[K, V], maxLevel),
		seed:     seed,
	}
	for i := 0; i < maxLevel; i++ {
		l.heads[i] = &Node[K, V]{kind: kindHead, level: i + 1}
		l.tails[i] = &Node[K, V]{kind: kindTail, level: i + 1}
	}
	for i := 0; i < maxLevel; i++ {
		h, t := l.heads[i], l.tails[i]
		h.towerRoot, t.towerRoot = l.heads[0], l.tails[0]
		h.succ.Store(&succ[K, V]{right: t})
		t.succ.Store(&succ[K, V]{right: nil})
		if i > 0 {
			h.down, t.down = l.heads[i-1], l.tails[i-1]
		}
		if i < maxLevel-1 {
			h.headUp, t.headUp = l.heads[i+1], l.tails[i+1]
		} else {
			h.headUp, t.headUp = h, t
		}
	}
	return l
}

// Len returns the number of keys (exact when quiescent).
func (l *SkipList[K, V]) Len() int { return int(l.size.Load()) }

// MaxLevel returns the head-tower height.
func (l *SkipList[K, V]) MaxLevel() int { return l.maxLevel }

// markTower marks every node of root's tower from the top down - the
// Sundell-Tsigas response to detecting a deleted tower mid-traversal.
// Climbing uses the up pointers published during insertion.
func (l *SkipList[K, V]) markTower(p *instrument.Proc, root *Node[K, V]) {
	st := p.StatsOrNil()
	// Collect the tower bottom-up, then mark top-down.
	var tower []*Node[K, V]
	for n := root; n != nil; n = n.up.Load() {
		tower = append(tower, n)
	}
	for i := len(tower) - 1; i >= 0; i-- {
		n := tower[i]
		for {
			s := n.loadSucc()
			if s.marked {
				break
			}
			ok := n.succ.CompareAndSwap(s, &succ[K, V]{right: s.right, marked: true})
			st.IncCAS(ok)
			if ok {
				if n.isRoot() {
					l.size.Add(-1)
				}
				break
			}
		}
	}
}

// recover walks backlinks from n to the first unmarked node. Chains may
// pass through nodes that were marked after their backlink was set - the
// behaviour the paper's flag bits exist to prevent.
func (l *SkipList[K, V]) recover(p *instrument.Proc, n *Node[K, V], level int) *Node[K, V] {
	st := p.StatsOrNil()
	for n.marked() {
		b := n.backlink.Load()
		if b == nil {
			// Marked before its backlink was stored (tower marking does
			// this): fall back to the level's head.
			st.IncRestart()
			p.At(instrument.PtRestart)
			return l.heads[level-1]
		}
		st.IncBacklink()
		p.At(instrument.PtBacklinkStep)
		n = b
	}
	return n
}

// searchRight traverses one level rightward from curr. Marked successors
// are physically unlinked; a superfluous tower encountered mid-traversal
// has its whole tower marked first (the Sundell-Tsigas rule).
func (l *SkipList[K, V]) searchRight(p *instrument.Proc, k K, curr *Node[K, V], level int, strict bool) (*Node[K, V], *Node[K, V]) {
	st := p.StatsOrNil()
	if curr.marked() {
		curr = l.recover(p, curr, level)
	}
	next := curr.right()
	for next.keyLeq(k, strict) {
		nextSucc := next.loadSucc()
		if !nextSucc.marked && next.superfluous() {
			// Tower deleted but this level not yet marked: mark the whole
			// tower, then fall through to the unlink path.
			l.markTower(p, next.towerRoot)
			nextSucc = next.loadSucc()
		}
		if nextSucc.marked {
			currSucc := curr.loadSucc()
			if currSucc.marked {
				curr = l.recover(p, curr, level)
			} else if currSucc.right == next {
				p.At(instrument.PtBeforePhysicalCAS)
				ok := curr.succ.CompareAndSwap(currSucc, &succ[K, V]{right: nextSucc.right})
				st.IncCAS(ok)
			}
			next = curr.right()
			st.IncNext()
			continue
		}
		if next.keyLeq(k, strict) {
			curr = next
			st.IncCurr()
			next = curr.right()
			st.IncNext()
		}
	}
	p.At(instrument.PtSearchDone)
	return curr, next
}

// findStart returns the head node to begin a descending search from.
func (l *SkipList[K, V]) findStart(v int) (*Node[K, V], int) {
	curr := l.heads[0]
	lv := 1
	for {
		up := curr.headUp
		if up == curr {
			break
		}
		if lv >= v && up.right().kind == kindTail {
			break
		}
		curr = up
		lv++
	}
	return curr, lv
}

// searchToLevel locates the (curr, next) pair around k on level v.
func (l *SkipList[K, V]) searchToLevel(p *instrument.Proc, k K, v int, strict bool) (*Node[K, V], *Node[K, V]) {
	curr, lv := l.findStart(v)
	for lv > v {
		curr, _ = l.searchRight(p, k, curr, lv, strict)
		curr = curr.down
		lv--
	}
	return l.searchRight(p, k, curr, v, strict)
}

// Get looks up k.
func (l *SkipList[K, V]) Get(p *instrument.Proc, k K) (V, bool) {
	curr, _ := l.searchToLevel(p, k, 1, false)
	if curr.compareKey(k) == 0 && !curr.marked() {
		return curr.val, true
	}
	var zero V
	return zero, false
}

// Contains reports whether k is present.
func (l *SkipList[K, V]) Contains(p *instrument.Proc, k K) bool {
	_, ok := l.Get(p, k)
	return ok
}

// insertNode inserts newNode between prev and next on its level using the
// no-flag protocol; recovery walks backlinks.
func (l *SkipList[K, V]) insertNode(p *instrument.Proc, newNode, prev, next *Node[K, V], level int) (*Node[K, V], bool) {
	st := p.StatsOrNil()
	if prev.compareKey(newNode.key) == 0 && !prev.marked() {
		return prev, false
	}
	for {
		prevSucc := prev.loadSucc()
		if !prevSucc.marked && prevSucc.right == next {
			newNode.succ.Store(&succ[K, V]{right: next})
			p.At(instrument.PtBeforeInsertCAS)
			ok := prev.succ.CompareAndSwap(prevSucc, &succ[K, V]{right: newNode})
			st.IncCAS(ok)
			if ok {
				if newNode.isRoot() {
					l.size.Add(1)
				}
				return prev, true
			}
			p.At(instrument.PtAfterInsertCASFail)
		} else {
			st.IncCAS(false)
		}
		if prev.marked() {
			prev = l.recover(p, prev, level)
		}
		prev, next = l.searchRight(p, newNode.key, prev, level, false)
		if prev.compareKey(newNode.key) == 0 && !prev.marked() {
			return prev, false
		}
	}
}

// Insert adds k with value v, building the tower bottom-up.
func (l *SkipList[K, V]) Insert(p *instrument.Proc, k K, v V) bool {
	prev, next := l.searchToLevel(p, k, 1, false)
	if prev.compareKey(k) == 0 && !prev.marked() {
		return false
	}
	root := &Node[K, V]{key: k, val: v, level: 1}
	root.towerRoot = root
	height := heights.Of(heights.Key(l.seed, k), l.maxLevel)
	newNode := root
	lv := 1
	for {
		var inserted bool
		prev, inserted = l.insertNode(p, newNode, prev, next, lv)
		if !inserted && lv == 1 {
			return false
		}
		if inserted && lv > 1 {
			// Publish the up pointer so tower marking can reach this node.
			newNode.down.up.Store(newNode)
		}
		if root.marked() {
			if inserted && newNode != root {
				// Our tower became superfluous: mark what we just added
				// and let searches unlink it.
				l.markTower(p, root)
			}
			return true
		}
		if !inserted {
			prev, next = l.searchToLevel(p, k, lv, false)
			continue
		}
		lv++
		if lv > height {
			return true
		}
		newNode = &Node[K, V]{key: k, level: lv, down: newNode, towerRoot: root}
		prev, next = l.searchToLevel(p, k, lv, false)
	}
}

// Delete removes k: mark the root (linearization), set its backlink for
// recovery, mark the rest of the tower, then sweep the upper levels.
func (l *SkipList[K, V]) Delete(p *instrument.Proc, k K) bool {
	st := p.StatsOrNil()
	prev, delNode := l.searchToLevel(p, k, 1, true)
	for {
		if delNode.compareKey(k) != 0 {
			return false
		}
		s := delNode.loadSucc()
		if s.marked {
			return false // a concurrent deletion won
		}
		delNode.backlink.Store(prev)
		p.At(instrument.PtBeforeMarkCAS)
		ok := delNode.succ.CompareAndSwap(s, &succ[K, V]{right: s.right, marked: true})
		st.IncCAS(ok)
		if ok {
			l.size.Add(-1)
			break
		}
		if prev.marked() {
			prev = l.recover(p, prev, 1)
		}
		prev, delNode = l.searchRight(p, k, prev, 1, true)
	}
	// Tower teardown: mark every level, then let a sweep unlink them.
	l.markTower(p, delNode)
	l.searchToLevel(p, k, 2, false)
	l.searchToLevel(p, k, 1, true) // unlink the root as well
	return true
}

// Ascend iterates keys in ascending order on level 1.
func (l *SkipList[K, V]) Ascend(fn func(k K, v V) bool) {
	n := l.heads[0].right()
	for n.kind != kindTail {
		if !n.marked() {
			if !fn(n.key, n.val) {
				return
			}
		}
		n = n.right()
	}
}
