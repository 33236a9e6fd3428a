package core

import (
	"fmt"
	"strings"
)

// NodeState is a diagnostic snapshot of one node's successor field, used
// by tools that visualize the deletion protocol (cmd/lflfigures) and by
// tests.
type NodeState[K comparable] struct {
	Key      K
	Sentinel string // "head", "tail", or "" for interior nodes
	Marked   bool
	Flagged  bool
	// BacklinkTo holds the backlink target's key when set on an interior
	// node whose target is interior.
	BacklinkSet bool
}

// nodeState describes a node from its key, kind, successor word and
// backlink.
func nodeState[K comparable, N any](key K, kind nodeKind, s word[N], backlinkSet bool) NodeState[K] {
	st := NodeState[K]{Key: key, Marked: s.marked(), Flagged: s.flagged(), BacklinkSet: backlinkSet}
	switch kind {
	case kindHead:
		st.Sentinel = "head"
	case kindTail:
		st.Sentinel = "tail"
	}
	return st
}

// Snapshot walks the physical chain from head to tail - including
// logically deleted nodes still linked - and reports each node's state.
// It is a diagnostic; under concurrency it reflects some interleaving.
func (l *List[K, V]) Snapshot() []NodeState[K] {
	defer l.opPin(nil).Unpin()
	var out []NodeState[K]
	for n := l.head; n != nil; n = n.right() {
		out = append(out, nodeState(n.key, n.kind, n.loadSucc(), n.backlink.Load() != nil))
	}
	return out
}

// RenderState draws a snapshot as the paper's figures do: shaded boxes
// (here "[k]*") for flagged successor fields and crossed boxes ("[k]X")
// for marked ones.
func RenderState[K comparable](states []NodeState[K]) string {
	var b strings.Builder
	for i, st := range states {
		if i > 0 {
			b.WriteString(" -> ")
		}
		label := fmt.Sprintf("%v", st.Key)
		if st.Sentinel != "" {
			label = st.Sentinel
		}
		deco := ""
		if st.Marked {
			deco = "X" // crossed: marked
		}
		if st.Flagged {
			deco = "*" // shaded: flagged
		}
		fmt.Fprintf(&b, "[%s]%s", label, deco)
		if st.BacklinkSet {
			b.WriteString("~") // backlink present
		}
	}
	return b.String()
}

// LevelSnapshot reports the physical chain of one skip-list level
// (1-based), including marked nodes, for Figure 6 style rendering.
func (l *SkipList[K, V]) LevelSnapshot(level int) []NodeState[K] {
	defer l.opPin(nil).Unpin()
	var out []NodeState[K]
	for n := l.head; n != nil; {
		c := n.cell(level)
		s := c.loadSucc()
		out = append(out, nodeState(n.key, n.kind, s, c.backlink.Load() != nil))
		n = s.right()
	}
	return out
}
