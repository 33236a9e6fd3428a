package ebr_test

import (
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/ebr"
)

// These tests wire the domain into the structures' retire seams and check
// the accounting exactly: the physical-deletion C&S is the unique point a
// node leaves the structure, so the number of Retire calls must equal the
// number of physical deletions - no node retired twice, none missed.

func TestRetireHookCountsListDeletions(t *testing.T) {
	d := ebr.NewDomain()
	h := d.Register()
	l := core.NewList[int, int]()
	l.SetRetireHook(func(node any) {
		if _, ok := node.(*core.SLNode[int, int]); !ok {
			t.Errorf("retire hook got %T, want *core.SLNode", node)
		}
		h.Retire(func() {})
	})
	h.Enter()
	for k := 0; k < 100; k++ {
		l.Insert(nil, k, k)
	}
	if got := d.Retired(); got != 0 {
		t.Fatalf("Retired after inserts = %d, want 0", got)
	}
	for k := 0; k < 60; k++ {
		if _, ok := l.Delete(nil, k); !ok {
			t.Fatalf("Delete(%d) failed", k)
		}
	}
	for k := 200; k < 210; k++ { // absent keys must not retire anything
		l.Delete(nil, k)
	}
	h.Exit()
	if got := d.Retired(); got != 60 {
		t.Fatalf("Retired = %d, want 60 (one per physical deletion)", got)
	}
	h.Flush()
	if d.Freed() != d.Retired() {
		t.Fatalf("Freed = %d, Retired = %d; Flush must drain everything", d.Freed(), d.Retired())
	}
}

// TestRetireHookCountsSkipListTowers checks the per-level accounting with
// random tower heights: deleting every key must retire exactly one node
// per tower level, measured independently via the height histogram.
func TestRetireHookCountsSkipListTowers(t *testing.T) {
	d := ebr.NewDomain()
	h := d.Register()
	l := core.NewSkipList[int, int](core.WithRetireHook(func(node any) {
		if _, ok := node.(*core.SLNode[int, int]); !ok {
			t.Errorf("retire hook got %T, want *core.SLNode", node)
		}
		h.Retire(func() {})
	}))
	const n = 256
	h.Enter()
	for k := 0; k < n; k++ {
		l.Insert(nil, k, k)
	}
	var levelNodes uint64
	for height, towers := range l.Heights() {
		levelNodes += uint64((height + 1) * towers)
	}
	for k := 0; k < n; k++ {
		if _, ok := l.Delete(nil, k); !ok {
			t.Fatalf("Delete(%d) failed", k)
		}
	}
	h.Exit()
	if got := d.Retired(); got != levelNodes {
		t.Fatalf("Retired = %d, want %d (every level node of every tower, exactly once)", got, levelNodes)
	}
	h.Flush()
	if d.Freed() != d.Retired() {
		t.Fatalf("Freed = %d, Retired = %d", d.Freed(), d.Retired())
	}
}

// TestRetireConcurrentChurn runs the real integration shape: one domain,
// one handle per goroutine routed through Proc.Retire (the physical
// deletion fires on whichever goroutine wins the C&S, under that
// goroutine's Proc), with the structure-level hook counting in parallel.
// After the churn, retire counts from both seams must equal the number of
// successful deletes.
func TestRetireConcurrentChurn(t *testing.T) {
	const (
		workers = 6
		rounds  = 3000
		span    = 128
	)
	for _, tc := range []struct {
		name string
		make func(hook func(any)) interface {
			Insert(p *core.Proc, k, v int) bool
			Delete(p *core.Proc, k int) bool
		}
	}{
		{"list", func(hook func(any)) interface {
			Insert(p *core.Proc, k, v int) bool
			Delete(p *core.Proc, k int) bool
		} {
			l := core.NewList[int, int]()
			l.SetRetireHook(hook)
			return listOps{l}
		}},
		{"skiplist", func(hook func(any)) interface {
			Insert(p *core.Proc, k, v int) bool
			Delete(p *core.Proc, k int) bool
		} {
			l := core.NewSkipList[int, int](core.WithRetireHook(hook))
			l.SetHeights(func(int) int { return 1 }) // one physical deletion per deleted key
			return skipOps{l}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := ebr.NewDomain()
			var hookRetires atomic.Uint64
			s := tc.make(func(any) { hookRetires.Add(1) })
			var deletes atomic.Uint64
			handles := make([]*ebr.Handle, workers)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				handles[w] = d.Register()
				wg.Add(1)
				go func(w int, h *ebr.Handle) {
					defer wg.Done()
					p := &core.Proc{ID: w, Retire: func(any) { h.Retire(func() {}) }}
					rng := rand.New(rand.NewPCG(uint64(w), 41))
					for r := 0; r < rounds; r++ {
						k := rng.IntN(span)
						h.Enter()
						if rng.IntN(2) == 0 {
							s.Insert(p, k, k)
						} else if s.Delete(p, k) {
							deletes.Add(1)
						}
						h.Exit()
					}
				}(w, handles[w])
			}
			wg.Wait()
			// Quiescent: every logically deleted node has been physically
			// unlinked (the invariant checkers enforce this elsewhere), so
			// both seams must have seen exactly one call per delete.
			if hookRetires.Load() != deletes.Load() {
				t.Fatalf("structure hook retired %d nodes, %d successful deletes",
					hookRetires.Load(), deletes.Load())
			}
			if d.Retired() != deletes.Load() {
				t.Fatalf("domain retired %d nodes, %d successful deletes",
					d.Retired(), deletes.Load())
			}
			for _, h := range handles {
				h.Flush()
			}
			if d.Freed() != d.Retired() {
				t.Fatalf("Freed = %d, Retired = %d after flushing every handle",
					d.Freed(), d.Retired())
			}
		})
	}
}

type listOps struct{ l *core.List[int, int] }

func (o listOps) Insert(p *core.Proc, k, v int) bool { _, ok := o.l.Insert(p, k, v); return ok }
func (o listOps) Delete(p *core.Proc, k int) bool    { _, ok := o.l.Delete(p, k); return ok }

type skipOps struct{ l *core.SkipList[int, int] }

func (o skipOps) Insert(p *core.Proc, k, v int) bool { _, ok := o.l.Insert(p, k, v); return ok }
func (o skipOps) Delete(p *core.Proc, k int) bool    { _, ok := o.l.Delete(p, k); return ok }

// TestIntegrationWithCoreList wires the domain into the FR list through
// the Proc.Retire hook and checks the end-to-end contract: every
// physically deleted node is retired exactly once, frees lag retirement by
// the grace period, and a pinned reader is never exposed to a recycled
// node.
func TestIntegrationWithCoreList(t *testing.T) {
	d := ebr.NewDomain()
	l := core.NewList[int, int]()
	const workers, ops, keyRange = 4, 4000, 64
	var wg sync.WaitGroup
	var retired atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := d.Register()
			p := &core.Proc{ID: w, Retire: func(n any) {
				retired.Add(1)
				h.Retire(func() {
					// A recycler would reset and pool n here.
					_ = n
				})
			}}
			rng := rand.New(rand.NewPCG(uint64(w), 8))
			for i := 0; i < ops; i++ {
				h.Enter()
				k := int(rng.Uint64N(keyRange))
				if rng.Uint64N(2) == 0 {
					l.Insert(p, k, k)
				} else {
					l.Delete(p, k)
				}
				h.Exit()
			}
			h.Flush()
		}(w)
	}
	wg.Wait()
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if retired.Load() == 0 {
		t.Fatal("no nodes were retired")
	}
	if d.Freed() != d.Retired() {
		t.Fatalf("freed %d of %d after flush", d.Freed(), d.Retired())
	}
	// Exactly-once retirement: retirement count equals nodes that left
	// the list = successful inserts that were later deleted.
	if got := uint64(retired.Load()); got != d.Retired() {
		t.Fatalf("retire hook fired %d times, domain saw %d", got, d.Retired())
	}
}

// TestIntegrationReaderSafety pins a reader on a node mid-deletion and
// checks the free callback cannot run until the reader exits.
func TestIntegrationReaderSafety(t *testing.T) {
	d := ebr.NewDomain()
	l := core.NewList[int, int]()
	l.Insert(nil, 1, 1)
	l.Insert(nil, 2, 2)

	reader := d.Register()
	writer := d.Register()

	reader.Enter()
	node := l.Search(nil, 2) // the reader holds this pointer
	if node == nil {
		t.Fatal("setup failed")
	}

	freed := make(chan struct{})
	writer.Enter()
	p := &core.Proc{Retire: func(n any) {
		writer.Retire(func() { close(freed) })
	}}
	if _, ok := l.Delete(p, 2); !ok {
		t.Fatal("delete failed")
	}
	writer.Exit()

	// Churn the writer; the pinned reader must hold the free back.
	for i := 0; i < 200; i++ {
		writer.Enter()
		writer.Exit()
		d.TryAdvanceForTest()
	}
	select {
	case <-freed:
		t.Fatal("node freed while the reader still held it")
	default:
	}
	// Reader can still safely read the (logically deleted) node.
	if node.Key() != 2 || node.Value() != 2 {
		t.Fatal("reader saw corrupted node")
	}
	reader.Exit()
	for i := 0; i < 4; i++ {
		d.TryAdvanceForTest()
		writer.Enter()
		writer.Exit()
	}
	select {
	case <-freed:
	default:
		t.Fatal("node never freed after the reader exited")
	}
}

func BenchmarkListOpsWithReclamation(b *testing.B) {
	for _, mode := range []string{"bare", "ebr"} {
		b.Run(mode, func(b *testing.B) {
			d := ebr.NewDomain()
			h := d.Register()
			l := core.NewList[int, int]()
			var p *core.Proc
			if mode == "ebr" {
				p = &core.Proc{Retire: func(n any) { h.Retire(func() {}) }}
			}
			for k := 0; k < 512; k += 2 {
				l.Insert(nil, k, k)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := (i*2 + 1) % 512
				if mode == "ebr" {
					h.Enter()
				}
				l.Insert(p, k, k)
				l.Delete(p, k)
				if mode == "ebr" {
					h.Exit()
				}
			}
		})
	}
}
