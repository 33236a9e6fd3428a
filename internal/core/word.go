package core

import (
	"sync/atomic"
	"unsafe"
)

// This file is the only place in the package that touches unsafe. It holds
// the paper's composite successor field - (right, mark, flag) in ONE machine
// word, read with one load and changed with one C&S - as a tagged pointer.
//
// Nodes are at least 8-aligned, so the two low bits of a node's address are
// zero. A successor word is the address of the successor node plus a tag in
// 0..2: a pointer to byte 0, 1 or 2 INSIDE that node. The garbage collector
// treats an interior pointer exactly like a pointer to the object's base, so
// a tagged word keeps its node alive and is a legal unsafe.Pointer under
// rule 3 of the unsafe package ("advancing through the object" with
// unsafe.Add, "&^ to round pointers", the result "must continue to point
// into the original allocated object").
//
// Two rules keep it legal, and both are enforced here rather than at the
// call sites:
//
//	(a) A loaded word stays an unsafe.Pointer from load to C&S - it is
//	    never parked in a uintptr - so the collector sees it, the node it
//	    names cannot be freed, and its address cannot be reused under a
//	    pending C&S.
//	(b) nil is never tagged. Only a tail sentinel has a nil right pointer
//	    and a tail is never flagged or marked; a non-nil pointer below the
//	    first page would be fatal to stack copying and the collector.
//
// The file's second job is the skip-list tower's cell accessor (at the
// bottom): a tower keeps the cells of levels 2 and up behind its header in
// the same allocation (skipnode.go), and reaching one is pointer arithmetic
// under the same rule 3. A third rule keeps that legal:
//
//	(c) A cell is addressed only on a level the tower has: cell checks
//	    1 <= level <= height as a slice index would be checked, and a
//	    tower's height never exceeds the cells of the struct type it was
//	    allocated as (allocTower), so the result never leaves the tower's
//	    allocation. The sum is one expression from the tower's pointer to
//	    the cell's - nothing is parked in a uintptr here either - and it
//	    is written as a uintptr sum rather than unsafe.Add because that is
//	    the form checkptr instruments: under -race an address outside the
//	    tower's allocation is fatal.

// Tags of a successor word. A node is never both marked and flagged (INV 5),
// so three values suffice and fit the two alignment bits.
const (
	tagFlagged uintptr = 1 // the successor is being deleted
	tagMarked  uintptr = 2 // the holder is logically deleted; the word is frozen
	tagMask    uintptr = 3
)

// word is one value of a successor field: (right, mark, flag). Two words
// are == exactly when the paper's composite fields are equal.
type word[N any] struct{ p unsafe.Pointer }

// clean returns the word (n, unmarked, unflagged): "successor is n".
func clean[N any](n *N) word[N] { return word[N]{unsafe.Pointer(n)} }

// flagged returns the word (n, unmarked, flagged): "successor is n and n is
// being deleted".
func flagged[N any](n *N) word[N] { return tagged(n, tagFlagged) }

// marked returns the word (n, marked, unflagged): "successor is n and the
// holder is logically deleted".
func marked[N any](n *N) word[N] { return tagged(n, tagMarked) }

func tagged[N any](n *N, tag uintptr) word[N] {
	if n == nil {
		panic("core: mark or flag on a nil successor") // rule (b)
	}
	return word[N]{unsafe.Add(unsafe.Pointer(n), tag)}
}

// right returns the successor node, ignoring the mark and flag.
func (w word[N]) right() *N { return (*N)(unsafe.Pointer(uintptr(w.p) &^ tagMask)) }

// marked reports whether the holder of this word is logically deleted.
func (w word[N]) marked() bool { return uintptr(w.p)&tagMarked != 0 }

// flagged reports whether the successor is being deleted.
func (w word[N]) flagged() bool { return uintptr(w.p)&tagFlagged != 0 }

// succField is the successor field of a node: the memory cell the words
// above are loaded from and swapped into. The zero value is (nil, 0, 0) -
// what a tail sentinel keeps for life and what a node holds before its
// first store.
type succField[N any] struct{ p unsafe.Pointer }

func (f *succField[N]) load() word[N] { return word[N]{atomic.LoadPointer(&f.p)} }

// store is for nodes not yet published (and structure set-up); a published
// successor field changes by cas only.
func (f *succField[N]) store(w word[N]) { atomic.StorePointer(&f.p, w.p) }

// cas is the paper's C&S on the whole (right, mark, flag) field.
func (f *succField[N]) cas(old, new word[N]) bool {
	return atomic.CompareAndSwapPointer(&f.p, old.p, new.p)
}

// cell returns the tower's cell on the given level: the level-1 cell is a
// field of the header, the higher ones follow it. Rule (c) is enforced
// here.
func (n *SLNode[K, V]) cell(level int) *slCell[K, V] {
	if uint(level-1) >= uint(n.height) {
		panic("core: tower has no cell on that level") // rule (c)
	}
	if level == 1 {
		return &n.slCell
	}
	return n.upper(level - 2)
}

// upper returns the i-th cell behind the header. The caller bounds i.
func (n *SLNode[K, V]) upper(i int) *slCell[K, V] {
	return (*slCell[K, V])(unsafe.Pointer(uintptr(unsafe.Pointer(n)) + unsafe.Sizeof(*n) + uintptr(i)*unsafe.Sizeof(n.slCell)))
}

// spare returns the cells of the tower's bucket above its height - memory
// the tower owns and never uses - for the validator, which wants them
// zero. The bucket's capacity bounds them as height bounds cell.
func (n *SLNode[K, V]) spare() []slCell[K, V] {
	h := int(n.height)
	if c := towerCaps[towerBucket(h)]; c > h {
		return unsafe.Slice(n.upper(h-1), c-h)
	}
	return nil
}
