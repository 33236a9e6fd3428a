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
	// BacklinkSet reports whether the node's backlink is set.
	BacklinkSet bool
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

// LevelSnapshot walks the physical chain of one level (1-based) from head
// to tail - including logically deleted nodes still linked - and reports
// each node's state, for Figure 2 and Figure 6 style rendering. It is a
// diagnostic; under concurrency it reflects some interleaving.
func (l *SkipList[K, V]) LevelSnapshot(level int) []NodeState[K] {
	defer l.opPin(nil).Unpin()
	var out []NodeState[K]
	for n := l.head; n != nil; {
		c := n.cell(level)
		s := c.loadSucc()
		st := NodeState[K]{Key: n.key, Marked: s.marked(), Flagged: s.flagged(), BacklinkSet: c.backlink.Load() != nil}
		switch n.kind {
		case kindHead:
			st.Sentinel = "head"
		case kindTail:
			st.Sentinel = "tail"
		}
		out = append(out, st)
		n = s.right()
	}
	return out
}
