// Package core implements the lock-free sorted linked list and skip list of
// Fomitchev and Ruppert, "Lock-Free Linked Lists and Skip Lists" (PODC 2004).
//
// The linked list follows the paper's Figures 3-5: deletion is a three-step
// protocol (flag the predecessor, set the victim's backlink and mark it,
// physically unlink it), and operations that fail a C&S because of a
// concurrent deletion recover by walking backlinks instead of restarting
// from the head.
//
// The paper's composite successor field - right pointer, mark bit, flag
// bit, read together and swapped by one C&S - is kept as the paper has it:
// one machine word. The two bits ride in the low bits of the successor's
// address, which makes the word a pointer to byte 0, 1 or 2 inside the
// successor node; Go's collector understands such interior pointers, so no
// side record and no allocation stand between a node and its successor
// (word.go holds the encoding and the two rules that keep it legal). A
// marked word is never the expected value of any C&S, so the paper's
// central invariant - a marked successor field never changes - holds as it
// does in the paper; DESIGN.md §2.1 restates the ABA argument for the word.
package core

import "sync/atomic"

// nodeKind distinguishes the two sentinel nodes from interior nodes.
// Sentinels let the list hold arbitrary ordered keys without reserving
// -inf/+inf key values.
type nodeKind int8

const (
	kindInterior nodeKind = iota
	kindHead              // compares less than every key
	kindTail              // compares greater than every key
)

// Node is a single cell of the lock-free linked list. Key and value are
// fixed at creation; succ and backlink are the only mutable fields.
type Node[K comparable, V any] struct {
	key  K
	succ succField[Node[K, V]]
	kind nodeKind

	backlink atomic.Pointer[Node[K, V]]
	val      V
}

// Key returns the node's key. Calling Key on a sentinel is invalid; the
// list never hands sentinels to callers.
func (n *Node[K, V]) Key() K { return n.key }

// Value returns the element stored when the node was inserted. Values are
// immutable for the lifetime of a node, matching the paper's dictionary
// semantics (no update operation).
func (n *Node[K, V]) Value() V { return n.val }

// loadSucc returns the current successor word.
func (n *Node[K, V]) loadSucc() word[Node[K, V]] { return n.succ.load() }

// marked reports whether the node is logically deleted (its mark bit set).
func (n *Node[K, V]) marked() bool { return n.succ.load().marked() }

// right returns the current right pointer, ignoring mark/flag bits.
func (n *Node[K, V]) right() *Node[K, V] { return n.succ.load().right() }

// Key comparisons treating sentinels as -inf/+inf live on the List (it
// owns the compare function); see List.cmpNode and List.nodeLeq.
