package core

import (
	"fmt"
)

// CheckInvariants validates the paper's invariants INV 1-5 (Section 3.3)
// over the reachable part of the list. It must be called in a quiescent
// state (no concurrent operations); stress tests call it between phases.
// It returns nil if every invariant holds.
//
//	INV 1: keys are strictly sorted along right pointers.
//	INV 2: regular and logically deleted nodes form a single linked list
//	       from head to tail.
//	INV 3: the predecessor of a logically deleted node is flagged and
//	       unmarked, and the deleted node's successor is unmarked.
//	INV 4: a logically deleted node's backlink points to its predecessor.
//	INV 5: no node is both marked and flagged.
//
// In a quiescent state no node reachable from the head should be marked or
// flagged at all (every deletion has fully completed), which this checker
// also enforces.
func (l *List[K, V]) CheckInvariants() error {
	defer l.opPin(nil).Unpin()
	prev := l.head
	seen := 0
	for {
		s := prev.loadSucc()
		if s.marked() && s.flagged() {
			return fmt.Errorf("INV5 violated: node %d is both marked and flagged", seen)
		}
		if s.marked() || s.flagged() {
			return fmt.Errorf("quiescence violated: reachable node %d has mark=%t flag=%t",
				seen, s.marked(), s.flagged())
		}
		next := s.right()
		if next == nil {
			if prev != l.tail {
				return fmt.Errorf("INV2 violated: nil right pointer before tail (node %d)", seen)
			}
			return nil
		}
		if err := checkOrder(prev.kind, next.kind, func() int { return l.compare(prev.key, next.key) }); err != nil {
			return fmt.Errorf("INV1 violated at node %d: %w", seen, err)
		}
		prev = next
		seen++
		if seen > 1<<30 {
			return fmt.Errorf("INV2 violated: list does not terminate (cycle?)")
		}
	}
}

// checkOrder verifies strict ordering between two adjacent nodes given
// their kinds, using keyCmp only when both are interior.
func checkOrder(a, b nodeKind, keyCmp func() int) error {
	switch {
	case a == kindTail:
		return fmt.Errorf("tail has a successor")
	case b == kindHead:
		return fmt.Errorf("head appears as a successor")
	case a == kindHead || b == kindTail:
		return nil
	case keyCmp() >= 0:
		return fmt.Errorf("keys not strictly increasing")
	default:
		return nil
	}
}

// ascend calls fn for each key/value in ascending order, skipping
// logically deleted nodes. Iteration is weakly consistent: it reflects
// some interleaving of concurrent updates. fn returning false stops the
// iteration. Ascend in telemetry.go wraps it with the metrics flush.
func (l *List[K, V]) ascend(fn func(k K, v V) bool) {
	n := l.head.right()
	for n.kind != kindTail {
		if !n.marked() {
			if !fn(n.key, n.val) {
				return
			}
		}
		n = n.right()
	}
}

// CheckStructure validates the skip list's structure in a quiescent state:
// every level satisfies INV 1-5 (via the same per-level checks as the
// list), towers are vertically consistent (Figure 6) - each node's down
// pointer leads to a node with the same key one level below, towerRoot
// pointers reach level 1 - and every node present on level v+1 has its
// whole tower below it present.
func (l *SkipList[K, V]) CheckStructure() error {
	defer l.opPin(nil).Unpin()
	// Per-level linked-list invariants plus key sets per level.
	levelKeys := make([]map[K]*SLNode[K, V], l.maxLevel)
	for lv := 1; lv <= l.maxLevel; lv++ {
		keys := make(map[K]*SLNode[K, V])
		prev := l.heads[lv-1]
		seen := 0
		for {
			s := prev.loadSucc()
			if s.marked() && s.flagged() {
				return fmt.Errorf("level %d: INV5 violated", lv)
			}
			if s.marked() || s.flagged() {
				return fmt.Errorf("level %d: quiescence violated: mark=%t flag=%t", lv, s.marked(), s.flagged())
			}
			next := s.right()
			if next == nil {
				if prev != l.tails[lv-1] {
					return fmt.Errorf("level %d: nil right pointer before tail", lv)
				}
				break
			}
			if err := checkOrder(prev.kind, next.kind, func() int { return l.compare(prev.key, next.key) }); err != nil {
				return fmt.Errorf("level %d: INV1 violated: %w", lv, err)
			}
			if next.kind == kindInterior {
				if got := next.Level(); got != lv {
					return fmt.Errorf("level %d: node with key %v sits %d levels up its tower", lv, next.key, got)
				}
				keys[next.key] = next
			}
			prev = next
			seen++
			if seen > 1<<30 {
				return fmt.Errorf("level %d: does not terminate (cycle?)", lv)
			}
		}
		levelKeys[lv-1] = keys
	}
	// Vertical structure: down pointers, tower roots, and the staircase
	// property (a key on level v+1 is also on level v in quiescence).
	for lv := 2; lv <= l.maxLevel; lv++ {
		for k, n := range levelKeys[lv-1] {
			below, ok := levelKeys[lv-2][k]
			if !ok {
				return fmt.Errorf("level %d: key %v present but absent on level %d", lv, k, lv-1)
			}
			if n.down != below {
				return fmt.Errorf("level %d: key %v down pointer does not reach the level-%d node", lv, k, lv-1)
			}
			if n.towerRoot == nil || !n.towerRoot.isRoot() || n.towerRoot.key != k {
				return fmt.Errorf("level %d: key %v has a bad towerRoot", lv, k)
			}
			if n.towerRoot.marked() {
				return fmt.Errorf("level %d: key %v is superfluous in a quiescent state", lv, k)
			}
		}
	}
	// Head/tail tower wiring.
	for lv := 1; lv <= l.maxLevel; lv++ {
		h, t := l.heads[lv-1], l.tails[lv-1]
		var wantDownH, wantDownT *SLNode[K, V]
		if lv > 1 {
			wantDownH, wantDownT = l.heads[lv-2], l.tails[lv-2]
		}
		if h.down != wantDownH || t.down != wantDownT || h.towerRoot != l.heads[0] || t.towerRoot != l.tails[0] {
			return fmt.Errorf("level %d: sentinel towers are miswired", lv)
		}
	}
	return nil
}

// ascend calls fn for each key/value in ascending order by walking level 1,
// skipping marked roots. Weakly consistent under concurrency.
func (l *SkipList[K, V]) ascend(fn func(k K, v V) bool) {
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

// ascendRange calls fn for keys in [from, to) in ascending order. It uses
// the skip-list search to locate the start, then walks level 1.
func (l *SkipList[K, V]) ascendRange(p *Proc, from, to K, fn func(k K, v V) bool) {
	curr, next := l.searchToLevel(p, from, 1, true) // curr.key < from <= next.key
	_ = curr
	n := next
	for n.kind != kindTail && l.compare(n.key, to) < 0 {
		if !n.marked() {
			if !fn(n.key, n.val) {
				return
			}
		}
		n = n.right()
	}
}

// Heights returns the histogram of tower heights among live (non-marked
// root) towers: Heights()[h] is the number of towers whose topmost present
// node is on level h+1. Used by experiment E6. Call in a quiescent state
// for exact results.
func (l *SkipList[K, V]) Heights() []int {
	defer l.opPin(nil).Unpin()
	top := make(map[K]int)
	for lv := 1; lv <= l.maxLevel; lv++ {
		n := l.heads[lv-1].right()
		for n.kind != kindTail {
			if !n.towerRoot.marked() {
				if lv > top[n.key] {
					top[n.key] = lv
				}
			}
			n = n.right()
		}
	}
	hist := make([]int, l.maxLevel)
	for _, h := range top {
		hist[h-1]++
	}
	return hist
}
