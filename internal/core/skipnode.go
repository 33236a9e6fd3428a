package core

import (
	"sync/atomic"
)

// SLNode is one node of the lock-free skip list. Following the paper's
// Figure 6, every key is represented by a tower of nodes; the bottom node
// of a tower is its root and carries the element. Nodes on the same level
// form an instance of the paper's lock-free linked list.
//
// The fields a search reads on every hop - key, the successor word, the
// tower root whose mark makes the node superfluous, the way down and the
// kind - come first, so with an 8-byte key they share the node's first 40
// bytes; SLNode[int, string] is 64 bytes, one cache line.
type SLNode[K comparable, V any] struct {
	key       K
	succ      succField[SLNode[K, V]]
	towerRoot *SLNode[K, V] // root of this node's tower (self on roots); fixed at creation
	// down is the node one level below, fixed at creation. A root has no
	// level below; when the skip list recycles nodes, a root's down holds
	// the topmost node of its tower instead (see newUpper in recycle.go),
	// which no search reads: a descent stops at level 1.
	down *SLNode[K, V]
	kind nodeKind
	// towerLive - used on roots, and only when the owning skip list
	// recycles nodes (recycle.go) - counts the tower's not-yet-unlinked
	// nodes: 1 for the root plus 1 per upper node, acquired before each
	// upper node is created. The tower retires as one batch when it
	// reaches zero, because down/towerRoot edges point at earlier-unlinked
	// nodes (the sweep unlinks the root first).
	towerLive atomic.Int32

	backlink atomic.Pointer[SLNode[K, V]]
	val      V // meaningful only on root nodes
}

// Key returns the node's key.
func (n *SLNode[K, V]) Key() K { return n.key }

// Value returns the element stored in the node's tower root.
func (n *SLNode[K, V]) Value() V { return n.towerRoot.val }

// Level returns the node's level (1 = root level) by walking down its
// tower; structure validators and tests call it, the algorithms never do.
func (n *SLNode[K, V]) Level() int {
	lv := 1
	for ; !n.isRoot(); n = n.down {
		lv++
	}
	return lv
}

// TowerRoot returns the root node of this node's tower.
func (n *SLNode[K, V]) TowerRoot() *SLNode[K, V] { return n.towerRoot }

func (n *SLNode[K, V]) loadSucc() word[SLNode[K, V]] { return n.succ.load() }

func (n *SLNode[K, V]) marked() bool { return n.succ.load().marked() }

func (n *SLNode[K, V]) right() *SLNode[K, V] { return n.succ.load().right() }

// isRoot reports whether n is the root node of its tower.
func (n *SLNode[K, V]) isRoot() bool { return n.towerRoot == n }

// Key comparisons treating sentinels as -inf/+inf live on the SkipList
// (it owns the compare function); see SkipList.cmpNode and SkipList.nodeLeq.
