// Command lflfigures regenerates the paper's figures as live text
// renderings: it executes the actual algorithms, freezing them between
// C&S steps with the adversary controller, and prints the intermediate
// list states using the figures' notation - "*" for a flagged successor
// field (shaded box), "X" for a marked one (crossed box), "~" for a node
// whose backlink is set.
//
// Usage:
//
//	lflfigures [-fig 1|2|6|all]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/harris"
	"repro/internal/instrument"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "lflfigures:", err)
		os.Exit(1)
	}
}

func run(args []string) error { return runTo(os.Stdout, args) }

// runTo renders the figures args select onto w.
func runTo(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("lflfigures", flag.ContinueOnError)
	fig := fs.String("fig", "all", "figure to render: 1, 2, 6, or all")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch *fig {
	case "1":
		figure1(w)
	case "2":
		figure2(w)
	case "6":
		figure6(w)
	case "all":
		figure1(w)
		fmt.Fprintln(w)
		figure2(w)
		fmt.Fprintln(w)
		figure6(w)
	default:
		return fmt.Errorf("unknown -fig %q", *fig)
	}
	return nil
}

// figure1 renders Harris's two-step deletion (paper Figure 1) by freezing
// a real deleter between its marking C&S and its unlinking C&S.
func figure1(w io.Writer) {
	fmt.Fprintln(w, "Figure 1: Harris's two-step deletion of node B")
	l := harris.NewList[string, int]()
	l.Insert(nil, "A", 0)
	l.Insert(nil, "B", 0)
	l.Insert(nil, "C", 0)
	fmt.Fprintln(w, "  initial:       ", harrisState(l))

	ctl := adversary.NewController()
	ctl.PauseAt(1, instrument.PtBeforePhysicalCAS)
	done := make(chan struct{})
	go func() {
		l.Delete(&instrument.Proc{ID: 1, Hooks: ctl.HooksFor()}, "B")
		close(done)
	}()
	ctl.AwaitParked(1, instrument.PtBeforePhysicalCAS)
	fmt.Fprintln(w, "  step 1 (mark): ", harrisState(l), "   <- B logically deleted")
	ctl.ClearAllPauses()
	ctl.Release(1)
	<-done
	fmt.Fprintln(w, "  step 2 (unlink):", harrisState(l), "       <- B physically deleted")
}

// harrisState renders the Harris list's physical chain read-only (a
// Search would help-prune the very marked node the figure shows).
func harrisState(l *harris.List[string, int]) string {
	parts := []string{"[head]"}
	l.AscendPhysical(func(key string, marked bool) bool {
		deco := ""
		if marked {
			deco = "X"
		}
		parts = append(parts, fmt.Sprintf("[%s]%s", key, deco))
		return true
	})
	parts = append(parts, "[tail]")
	return strings.Join(parts, " -> ")
}

// figure2 renders the paper's three-step deletion (Figure 2), freezing the
// deleter after the flagging C&S and after the marking C&S.
func figure2(w io.Writer) {
	fmt.Fprintln(w, "Figure 2: three-step deletion of node B (the paper's protocol)")
	l := core.NewList[string, int]()
	l.Insert(nil, "A", 0)
	l.Insert(nil, "B", 0)
	l.Insert(nil, "C", 0)
	fmt.Fprintln(w, "  initial:          ", core.RenderState(l.Snapshot()))

	ctl := adversary.NewController()
	ctl.PauseAt(1, instrument.PtBeforeMarkCAS)
	ctl.PauseAt(1, instrument.PtBeforePhysicalCAS)
	done := make(chan struct{})
	go func() {
		l.Delete(&core.Proc{ID: 1, Hooks: ctl.HooksFor()}, "B")
		close(done)
	}()
	ctl.AwaitParked(1, instrument.PtBeforeMarkCAS)
	fmt.Fprintln(w, "  step 1 (flag A):  ", core.RenderState(l.Snapshot()), "  <- A's successor field flagged (*)")
	ctl.Release(1)
	ctl.AwaitParked(1, instrument.PtBeforePhysicalCAS)
	fmt.Fprintln(w, "  step 2 (mark B):  ", core.RenderState(l.Snapshot()), "  <- B marked (X), backlink set (~)")
	ctl.ClearAllPauses()
	ctl.Release(1)
	<-done
	fmt.Fprintln(w, "  step 3 (unlink B):", core.RenderState(l.Snapshot()), "   <- B removed, flag cleared")
}

// figure6Seed hashes keys 1..7 to towers of heights 1, 2, 3, 1, 4, 2, 1.
const figure6Seed = 46291

// figure6 renders the skip list's tower structure (Figure 6) after a few
// insertions with deterministic heights.
func figure6(w io.Writer) {
	fmt.Fprintln(w, "Figure 6: skip-list towers (deterministic heights)")
	l := core.NewSkipList[int, int](core.WithSeed(figure6Seed))
	for k := 1; k <= 7; k++ {
		l.Insert(nil, k, k)
	}
	for lv := 4; lv >= 1; lv-- {
		fmt.Fprintf(w, "  level %d: %s\n", lv, core.RenderState(l.LevelSnapshot(lv)))
	}
}
