package core

import (
	"sync/atomic"
)

// slCell is one level of a tower: the successor field and the backlink of
// the paper's node on that level. Words and backlinks name towers; which
// level they belong to is the level of the cell that holds them.
type slCell[K comparable, V any] struct {
	succ     succField[SLNode[K, V]]
	backlink atomic.Pointer[SLNode[K, V]]
}

func (c *slCell[K, V]) loadSucc() word[SLNode[K, V]] { return c.succ.load() }

func (c *slCell[K, V]) marked() bool { return c.succ.load().marked() }

func (c *slCell[K, V]) right() *SLNode[K, V] { return c.succ.load().right() }

// SLNode is one tower of the lock-free skip list: every level of one key
// in ONE object. The paper's Figure 6 draws a key as a tower of nodes, each
// level an instance of its linked list; here a paper node is the pair
// (tower, level), and the algorithms carry the level beside the pointer.
// Figure 6's vertical pointers hold by construction: down is level-1 on
// the same tower, tower_root is the tower itself.
//
// This struct is the header - element, kind, height, key - and the
// level-1 cell, whose methods and fields are promoted: n.marked() says the
// tower's root is marked, which is both "the key is deleted" and, seen
// from a higher level, "this tower is superfluous". A search compares key
// and then reads that word, eight bytes apart. The cells of levels 2 and
// up follow the header in the same allocation (towerOf, below)
// and are reached through cell (word.go).
type SLNode[K comparable, V any] struct {
	val  V
	kind nodeKind
	// height is the number of levels this tower may be linked on, drawn
	// before it is allocated and fixed for its life; cell refuses any
	// level above it. Sentinel towers have height maxLevel.
	height uint8
	// towerLive - used only when the owning skip list recycles towers
	// (recycle.go) - counts the cells that are linked or about to be: 1
	// for level 1 plus 1 per higher level, acquired before that level's
	// insertion. Whichever unlink brings it to zero retires the tower.
	towerLive atomic.Int32
	key       K
	slCell[K, V]
}

// towerOf is the bucket family: a tower of height h is allocated as the
// header followed by U, the smallest array [n]slCell of towerCaps that
// makes h cells with the header's own. Every instance is an ordinary
// struct type, so the collector has a pointer map for every cell; a tower
// is never carved out of a byte slab. With an 8-byte key and a 16-byte
// value the buckets measure 64, 80, 96, 160 and 288 bytes - Go size
// classes exactly - and 544 and 1056 beyond.
type towerOf[K comparable, V any, U any] struct {
	SLNode[K, V]
	up U
}

// towerCaps lists the buckets' capacities in cells; maxFingerLevels and
// the WithMaxLevel clamp equal the largest.
var towerCaps = [...]int{1, 2, 3, 4, 8, 16, 32, 64}

// towerBucket returns the index in towerCaps of the smallest bucket with
// room for height cells.
func towerBucket(height int) int {
	b := 0
	for towerCaps[b] < height {
		b++
	}
	return b
}

// allocTower allocates a zeroed tower of the given height from its bucket.
// It is the only place a tower is allocated, which is what lets cell
// trust height as a bound on the allocation.
func allocTower[K comparable, V any](height int) *SLNode[K, V] {
	var n *SLNode[K, V]
	switch towerBucket(height) {
	case 0:
		n = new(SLNode[K, V])
	case 1:
		n = &new(towerOf[K, V, [1]slCell[K, V]]).SLNode
	case 2:
		n = &new(towerOf[K, V, [2]slCell[K, V]]).SLNode
	case 3:
		n = &new(towerOf[K, V, [3]slCell[K, V]]).SLNode
	case 4:
		n = &new(towerOf[K, V, [7]slCell[K, V]]).SLNode
	case 5:
		n = &new(towerOf[K, V, [15]slCell[K, V]]).SLNode
	case 6:
		n = &new(towerOf[K, V, [31]slCell[K, V]]).SLNode
	default:
		n = &new(towerOf[K, V, [63]slCell[K, V]]).SLNode
	}
	n.height = uint8(height)
	return n
}

// Key returns the tower's key.
func (n *SLNode[K, V]) Key() K { return n.key }

// Value returns the element stored with the key.
func (n *SLNode[K, V]) Value() V { return n.val }

// Height returns the number of levels the tower was drawn to span. A
// tower whose construction was cut short by a concurrent deletion is
// linked on fewer; SkipList.Heights counts linked levels.
func (n *SLNode[K, V]) Height() int { return int(n.height) }

// Key comparisons treating sentinels as -inf/+inf live on the SkipList
// (it owns the compare function); see SkipList.cmpNode and SkipList.nodeLeq.
