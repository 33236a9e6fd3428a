package core

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/adversary"
)

// These tests check the successor word (word.go) against the runtime: a
// node reachable only through a flagged or marked word - an interior
// pointer - must survive collection, and goroutine stacks holding such
// words must survive being copied.

var gcSink [][]byte

// collectHard runs the collector three times at its most eager setting and
// then allocates over whatever it freed, so a wrongly freed node would be
// overwritten rather than merely unreferenced.
func collectHard() {
	defer debug.SetGCPercent(debug.SetGCPercent(1))
	for i := 0; i < 3; i++ {
		runtime.GC()
	}
	gcSink = gcSink[:0]
	for i := 0; i < 4096; i++ {
		b := make([]byte, 48+16*(i%3)) // the size classes the nodes live in
		for j := range b {
			b[j] = 0xff
		}
		gcSink = append(gcSink, b)
	}
}

// watch sets a finalizer on n and returns the flag it raises: a node the
// structure still reaches must never be finalized.
func watch[N any](n *N) *atomic.Bool {
	freed := new(atomic.Bool)
	runtime.SetFinalizer(n, func(*N) { freed.Store(true) })
	return freed
}

// TestGCWordAloneKeepsNode: a node whose ONLY reference is a successor
// word, under each tag, is kept alive and decodes to the same node.
func TestGCWordAloneKeepsNode(t *testing.T) {
	type cell struct {
		f succField[SLNode[int, string]]
	}
	for tag, mk := range []func(*SLNode[int, string]) word[SLNode[int, string]]{
		clean[SLNode[int, string]], flagged[SLNode[int, string]], marked[SLNode[int, string]],
	} {
		c := new(cell)
		freed := func() *atomic.Bool {
			n := &SLNode[int, string]{key: 7 + tag, val: fmt.Sprint("value-", tag)}
			c.f.store(mk(n))
			return watch(n)
		}()
		collectHard()
		if freed.Load() {
			t.Fatalf("tag %d: node referenced only by its tagged word was collected", tag)
		}
		n := c.f.load().right()
		if n.key != 7+tag || n.val != fmt.Sprint("value-", tag) {
			t.Fatalf("tag %d: node behind the word reads (%d,%q)", tag, n.key, n.val)
		}
		runtime.KeepAlive(c)
	}
}

// TestGCWordInUpperCellKeepsTower: the cells behind a tower's header are
// reached by pointer arithmetic (cell, word.go) but belong to a real struct
// type, so the collector scans them. A tower whose ONLY reference is a
// word, under each tag, in another tower's level-3 cell is kept alive, and
// its header and its own level-3 cell read back intact.
func TestGCWordInUpperCellKeepsTower(t *testing.T) {
	type tower = SLNode[int, string]
	for tag, mk := range []func(*tower) word[tower]{clean[tower], flagged[tower], marked[tower]} {
		holder := allocTower[int, string](3)
		freed := func() *atomic.Bool {
			n := allocTower[int, string](3)
			n.key, n.val = 7+tag, fmt.Sprint("value-", tag)
			n.cell(3).succ.store(mk(holder))
			holder.cell(3).succ.store(mk(n))
			return watch(n)
		}()
		collectHard()
		if freed.Load() {
			t.Fatalf("tag %d: tower referenced only from another tower's level-3 cell was collected", tag)
		}
		n := holder.cell(3).loadSucc().right()
		if n.key != 7+tag || n.val != fmt.Sprint("value-", tag) || n.Height() != 3 {
			t.Fatalf("tag %d: tower behind the word reads (%d,%q), height %d", tag, n.key, n.val, n.Height())
		}
		if w := n.cell(3).loadSucc(); w != mk(holder) || n.cell(2).loadSucc() != (word[tower]{}) {
			t.Fatalf("tag %d: the tower's own cells did not survive the collections", tag)
		}
		runtime.KeepAlive(holder)
	}
}

// gcSubject lets one schedule drive both structures and node types.
type gcSubject[N any] struct {
	insert func(k int, v string) *N
	del    func(p *Proc, k int) bool
	get    func(k int) (string, bool)
	check  func() error
	succ   func(*N) word[N]
	back   func(*N) *N
	kv     func(*N) (int, string)
}

// gcDeletionSchedule parks a deleter of key 20 in {10,20,30,40} between its
// flag and mark C&S, then between mark and physical deletion. In both
// states everything right of node 10 hangs off tagged words only - 10's
// flagged word, then 20's marked word - apart from the parked deleter's own
// stack. The test holds no node but 10 across the collections, then reads
// the victim and its successors back through the words and the backlink.
func gcDeletionSchedule[N any](t *testing.T, s gcSubject[N]) {
	pred := s.insert(10, "v10")
	var watched []*atomic.Bool
	for k := 20; k <= 40; k += 10 {
		watched = append(watched, watch(s.insert(k, fmt.Sprint("v", k))))
	}
	ctl := adversary.NewController()
	ctl.PauseAt(1, PtBeforeMarkCAS)
	ctl.PauseAt(1, PtBeforePhysicalCAS)
	done := make(chan bool, 1)
	go func() { done <- s.del(&Proc{ID: 1, Hooks: ctl.HooksFor()}, 20) }()

	readChain := func(state string, victimMarked bool) {
		t.Helper()
		collectHard()
		for i, freed := range watched {
			if freed.Load() {
				t.Fatalf("%s: node %d behind a tagged word was collected", state, 20+10*i)
			}
		}
		w := s.succ(pred)
		if !w.flagged() || w.marked() {
			t.Fatalf("%s: 10.succ is not flagged", state)
		}
		victim := w.right()
		if k, val := s.kv(victim); k != 20 || val != "v20" {
			t.Fatalf("%s: victim reads (%d,%q) through the flagged word", state, k, val)
		}
		if b := s.back(victim); b != pred {
			t.Fatalf("%s: victim's backlink does not lead to 10", state)
		} else if k, val := s.kv(b); k != 10 || val != "v10" {
			t.Fatalf("%s: backlink target reads (%d,%q)", state, k, val)
		}
		w = s.succ(victim)
		if w.marked() != victimMarked || w.flagged() {
			t.Fatalf("%s: victim's word has mark=%t flag=%t", state, w.marked(), w.flagged())
		}
		for n, want := w.right(), 30; want <= 40; n, want = s.succ(n).right(), want+10 {
			if k, val := s.kv(n); k != want || val != fmt.Sprint("v", want) {
				t.Fatalf("%s: node after the victim reads (%d,%q), want key %d", state, k, val, want)
			}
		}
	}

	ctl.AwaitParked(1, PtBeforeMarkCAS)
	readChain("flagged, unmarked", false)
	ctl.ClearPause(1, PtBeforeMarkCAS)
	ctl.Release(1)
	ctl.AwaitParked(1, PtBeforePhysicalCAS)
	readChain("marked, linked", true)
	ctl.ClearAllPauses()
	ctl.Release(1)
	if !<-done {
		t.Fatal("parked delete reported failure")
	}
	collectHard()
	if _, ok := s.get(20); ok {
		t.Fatal("deleted key 20 present")
	}
	if val, ok := s.get(40); !ok || val != "v40" {
		t.Fatalf("Get(40) = %q, %t", val, ok)
	}
	if err := s.check(); err != nil {
		t.Fatal(err)
	}
}

func TestGCKeepsNodesBehindTaggedWordsList(t *testing.T) {
	for _, recycle := range []bool{false, true} {
		t.Run(fmt.Sprint("recycle=", recycle), func(t *testing.T) {
			l := NewList[int, string]()
			if recycle {
				l.EnableRecycling()
			}
			type node = SLNode[int, string]
			gcDeletionSchedule(t, gcSubject[node]{
				insert: func(k int, v string) *node { n, _ := l.Insert(nil, k, v); return n },
				del:    func(p *Proc, k int) bool { _, ok := l.Delete(p, k); return ok },
				get:    func(k int) (string, bool) { return l.Get(nil, k) },
				check:  l.CheckInvariants,
				succ:   (*node).loadSucc,
				back:   func(n *node) *node { return n.backlink.Load() },
				kv:     func(n *node) (int, string) { return n.key, n.val },
			})
		})
	}
}

func TestGCKeepsNodesBehindTaggedWordsSkipList(t *testing.T) {
	for _, recycle := range []bool{false, true} {
		t.Run(fmt.Sprint("recycle=", recycle), func(t *testing.T) {
			var opts []SkipListOption
			if recycle {
				opts = append(opts, WithRecycling())
			}
			l := NewSkipList[int, string](opts...)
			l.SetHeights(func(int) int { return 1 }) // no upper level offers a second path
			type node = SLNode[int, string]
			gcDeletionSchedule(t, gcSubject[node]{
				insert: func(k int, v string) *node { n, _ := l.Insert(nil, k, v); return n },
				del:    func(p *Proc, k int) bool { _, ok := l.Delete(p, k); return ok },
				get:    func(k int) (string, bool) { return l.Get(nil, k) },
				check:  l.CheckStructure,
				succ:   (*node).loadSucc,
				back:   func(n *node) *node { return n.backlink.Load() },
				kv:     func(n *node) (int, string) { return n.key, n.val },
			})
		})
	}
}

// climbHolding walks level 1 recursively, one frame per node, each frame
// keeping the word it loaded in a local across the deeper calls: when the
// stack is copied to grow, the copier sees every one of those tagged
// locals. It returns how many words still decoded to a node on the way out.
func climbHolding(n *SLNode[int, int], depth int) int {
	var pad [128]byte // widen the frame so the stack doubles several times
	pad[depth%len(pad)] = 1
	w := n.loadSucc()
	next := w.right()
	if next == nil || depth == 0 {
		return int(pad[0])
	}
	got := climbHolding(next, depth-1)
	if w.right() == next { // w, not next, is what the frame must have kept intact
		got++
	}
	return got + int(pad[1])
}

// TestGCChurnSoak: four goroutines churn 2^10 keys while a fifth forces
// collections back to back and a sixth keeps starting fresh goroutines
// whose stacks grow while full of loaded successor words.
func TestGCChurnSoak(t *testing.T) {
	dur := 2 * time.Second
	if testing.Short() {
		dur = 300 * time.Millisecond
	}
	for _, recycle := range []bool{false, true} {
		t.Run(fmt.Sprint("recycle=", recycle), func(t *testing.T) {
			const workers, keys = 4, 1 << 10
			var opts []SkipListOption
			if recycle {
				opts = append(opts, WithRecycling())
			}
			l := NewSkipList[int, int](opts...)
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					rng := rand.New(rand.NewPCG(uint64(w), 14))
					p := &Proc{ID: w}
					present := map[int]bool{} // this worker alone writes keys = w mod workers
					for i := 0; ; i++ {
						if i%64 == 0 {
							select {
							case <-stop:
								return
							default:
							}
						}
						k := int(rng.Uint64N(keys/workers))*workers + w
						switch rng.Uint64N(3) {
						case 0:
							if _, ok := l.Insert(p, k, k); ok == present[k] {
								t.Errorf("Insert(%d) = %t with the key present=%t", k, ok, present[k])
								return
							}
							present[k] = true
						case 1:
							if _, ok := l.Delete(p, k); ok != present[k] {
								t.Errorf("Delete(%d) = %t with the key present=%t", k, ok, present[k])
								return
							}
							present[k] = false
						default:
							if v, ok := l.Get(p, k); ok != present[k] || (ok && v != k) {
								t.Errorf("Get(%d) = %d, %t with the key present=%t", k, v, ok, present[k])
								return
							}
						}
					}
				}()
			}
			wg.Add(2)
			go func() {
				defer wg.Done()
				defer debug.SetGCPercent(debug.SetGCPercent(1))
				for {
					select {
					case <-stop:
						return
					default:
						runtime.GC()
					}
				}
			}()
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					walked := make(chan int)
					go func() { // a fresh, small stack every round
						pin := l.PinEpoch()
						defer pin.Unpin()
						walked <- climbHolding(l.head, keys)
					}()
					<-walked
				}
			}()
			time.Sleep(dur)
			close(stop)
			wg.Wait()
			if err := l.CheckStructure(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
