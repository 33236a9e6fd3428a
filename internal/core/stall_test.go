package core

import (
	"sync"
	"testing"
)

// multiGate parks a process every time it reaches the given point, until
// released; unlike gate it can fire more than once.
type multiGate struct {
	point   Point
	mu      sync.Mutex
	arrive  chan struct{}
	release chan struct{}
	stopped bool
}

func newMultiGate(p Point) *multiGate {
	return &multiGate{point: p, arrive: make(chan struct{}, 64), release: make(chan struct{})}
}

func (g *multiGate) At(p Point, _ int) {
	if p != g.point {
		return
	}
	g.mu.Lock()
	stopped := g.stopped
	g.mu.Unlock()
	if stopped {
		return
	}
	g.arrive <- struct{}{}
	<-g.release
}

// open lets every current and future arrival through.
func (g *multiGate) open() {
	g.mu.Lock()
	g.stopped = true
	g.mu.Unlock()
	close(g.release)
}

// TestListStalledDeleterFlagPhase parks a deleter right before its
// flagging C&S - before it has modified anything - and checks that every
// other operation proceeds and the deleter still completes afterwards.
func TestListStalledDeleterFlagPhase(t *testing.T) {
	l := NewList[int, int]()
	for i := 0; i < 50; i++ {
		l.Insert(nil, i, i)
	}
	g := newMultiGate(PtBeforeFlagCAS)
	res := make(chan bool, 1)
	go func() {
		_, ok := l.Delete(&Proc{ID: 1, Hooks: g}, 25)
		res <- ok
	}()
	<-g.arrive
	// Everything else keeps working.
	if _, ok := l.Insert(nil, 100, 100); !ok {
		t.Fatal("insert blocked")
	}
	if _, ok := l.Delete(nil, 30); !ok {
		t.Fatal("delete blocked")
	}
	if n := l.Search(nil, 25); n == nil {
		t.Fatal("key 25 should still be present (deletion has not started)")
	}
	g.open()
	if !<-res {
		t.Fatal("stalled deleter failed")
	}
	if _, ok := l.Get(nil, 25); ok {
		t.Fatal("key 25 survived")
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSkipListStalledTowerBuild parks an inserter between its root-level
// insertion and the upper tower levels; searches and deletions of the key
// must work against the partial tower, and deleting it mid-build must make
// the inserter stop gracefully (still reporting success, since the root
// C&S linearized the insert).
func TestSkipListStalledTowerBuild(t *testing.T) {
	// Force tall towers so the build has upper levels to stall in.
	l := rigged(allHeight(5))
	for i := 0; i < 10; i++ {
		l.Insert(nil, i*10, i)
	}
	// Stall the inserter at its second insertion C&S: the first one links
	// the root (linearizing the insert), the second would link level 2.
	g := newMultiGate(PtBeforeInsertCAS)
	occurrences := 0
	hook := HookFunc(func(p Point, pid int) {
		if p != PtBeforeInsertCAS {
			return
		}
		occurrences++
		if occurrences >= 2 {
			g.At(p, pid)
		}
	})
	res := make(chan bool, 1)
	go func() {
		_, ok := l.Insert(&Proc{ID: 9, Hooks: hook}, 55, 55)
		res <- ok
	}()
	<-g.arrive // inserter stalled mid tower construction, root already linked

	// The root is visible mid-build...
	if _, ok := l.Get(nil, 55); !ok {
		t.Fatal("key 55 not visible after root insertion")
	}
	// ...and other operations proceed.
	if _, ok := l.Insert(nil, 56, 56); !ok {
		t.Fatal("concurrent insert blocked by stalled tower build")
	}
	// Deleting the mid-build key must succeed.
	if _, ok := l.Delete(nil, 55); !ok {
		t.Fatal("could not delete a mid-build tower")
	}
	g.open()
	if !<-res {
		t.Fatal("interrupted insert must still report success (it linearized first)")
	}
	if _, ok := l.Get(nil, 55); ok {
		t.Fatal("key 55 still present after deletion")
	}
	if err := l.CheckStructure(); err != nil {
		t.Fatal(err)
	}
}

// TestSkipListStalledRootDeletion parks a deleter after flagging the
// root's predecessor; a concurrent insert of a key just before the victim
// must help and complete.
func TestSkipListStalledRootDeletion(t *testing.T) {
	l := NewSkipList[int, int](WithSeed(42))
	for i := 0; i < 100; i += 10 {
		l.Insert(nil, i, i)
	}
	g := newMultiGate(PtBeforeMarkCAS)
	res := make(chan bool, 1)
	go func() {
		_, ok := l.Delete(&Proc{ID: 3, Hooks: g}, 50)
		res <- ok
	}()
	<-g.arrive
	// 40's root is now flagged for the deletion of 50. Insert between.
	done := make(chan bool, 1)
	go func() {
		_, ok := l.Insert(nil, 45, 45)
		done <- ok
	}()
	if !<-done {
		t.Fatal("insert 45 blocked by stalled root deletion")
	}
	if _, ok := l.Get(nil, 50); ok {
		t.Fatal("helping should have completed the logical deletion of 50")
	}
	g.open()
	if !<-res {
		t.Fatal("stalled deleter did not report success")
	}
	if err := l.CheckStructure(); err != nil {
		t.Fatal(err)
	}
	if _, ok := l.Get(nil, 45); !ok {
		t.Fatal("key 45 missing")
	}
}

// TestSkipListManyStalledDeleters parks several deleters mid-deletion at
// once and checks that a full sweep of independent operations completes -
// the lock-freedom property under multiple simultaneous failures.
func TestSkipListManyStalledDeleters(t *testing.T) {
	l := NewSkipList[int, int](WithSeed(43))
	for i := 0; i < 200; i++ {
		l.Insert(nil, i, i)
	}
	const stalled = 8
	g := newMultiGate(PtBeforePhysicalCAS)
	var wg sync.WaitGroup
	for i := 0; i < stalled; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			l.Delete(&Proc{ID: i, Hooks: g}, 20*i+10) // non-adjacent victims
		}(i)
	}
	for i := 0; i < stalled; i++ {
		<-g.arrive
	}
	// With eight deletions frozen before their physical C&S, every other
	// operation must still run to completion.
	for i := 0; i < 200; i += 7 {
		l.Search(nil, i)
	}
	for i := 300; i < 330; i++ {
		if _, ok := l.Insert(nil, i, i); !ok {
			t.Fatalf("insert %d blocked", i)
		}
	}
	g.open()
	wg.Wait()
	if err := l.CheckStructure(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < stalled; i++ {
		if _, ok := l.Get(nil, 20*i+10); ok {
			t.Fatalf("victim %d survived", 20*i+10)
		}
	}
}
