// Package core implements the lock-free sorted linked list and skip list of
// Fomitchev and Ruppert, "Lock-Free Linked Lists and Skip Lists" (PODC 2004).
//
// The paper's list algorithm is implemented once, on one level of the skip
// list (skipinternal.go, skipsearch.go - Figures 3-5): deletion is a
// three-step protocol (flag the predecessor, set the victim's backlink and
// mark it, physically unlink it), and operations that fail a C&S because
// of a concurrent deletion recover by walking backlinks instead of
// restarting from the head. The linked list (list.go) is the skip list with
// every interior tower one level high.
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

// nodeKind distinguishes the two sentinel nodes from interior nodes.
// Sentinels let the list hold arbitrary ordered keys without reserving
// -inf/+inf key values.
type nodeKind int8

const (
	kindInterior nodeKind = iota
	kindHead              // compares less than every key
	kindTail              // compares greater than every key
)
