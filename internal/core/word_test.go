package core

import (
	"testing"
	"unsafe"
)

// These white-box tests pin the successor word itself: tagging and
// untagging round-trip on every kind of node, word equality is the paper's
// structural comparison on (right, mark, flag), a C&S expecting the right
// node under the wrong tag fails, and the nodes keep the sizes and the
// search-first layout the word bought. They also document - deliberately -
// that a successor field can revisit a prior word (benign ABA); DESIGN.md
// §2.1 explains why the algorithms tolerate exactly that, and
// internal/adversary exercises the schedules.

// checkWords round-trips all three tags over n and checks C&S on a fresh
// field against every same-node different-tag word.
func checkWords[N any](t *testing.T, name string, n *N) {
	t.Helper()
	words := []struct {
		w               word[N]
		marked, flagged bool
	}{
		{clean(n), false, false},
		{flagged(n), false, true},
		{marked(n), true, false},
	}
	for i, c := range words {
		if c.w.right() != n || c.w.marked() != c.marked || c.w.flagged() != c.flagged {
			t.Fatalf("%s tag %d: decoded (%p,%t,%t), want (%p,%t,%t)",
				name, i, c.w.right(), c.w.marked(), c.w.flagged(), n, c.marked, c.flagged)
		}
		for j, d := range words {
			if (c.w == d.w) != (i == j) {
				t.Fatalf("%s: word %d == word %d is %t", name, i, j, c.w == d.w)
			}
			var f succField[N]
			f.store(c.w)
			if got := f.cas(d.w, clean(n)); got != (i == j) {
				t.Fatalf("%s: cas expecting word %d on a field holding word %d returned %t", name, j, i, got)
			}
			if i != j && f.load() != c.w {
				t.Fatalf("%s: a failed cas changed the field", name)
			}
		}
	}
}

func TestWordRoundTrip(t *testing.T) {
	l := NewList[int, string]()
	for _, k := range []int{10, 20, 30} {
		l.Insert(nil, k, "v")
	}
	checkWords(t, "list head", l.head)
	checkWords(t, "list interior", l.Search(nil, 20))
	checkWords(t, "list tail-adjacent", l.Search(nil, 30))
	checkWords(t, "list tail", l.tail)

	sl := NewSkipList[int, string](WithRandomSource(func() uint64 { return 1 })) // height 2
	for _, k := range []int{10, 20, 30} {
		sl.Insert(nil, k, "v")
	}
	checkWords(t, "skip head", sl.heads[1])
	checkWords(t, "skip interior root", sl.Search(nil, 20))
	checkWords(t, "skip interior upper", sl.heads[1].right().right())
	checkWords(t, "skip tail-adjacent", sl.Search(nil, 30))
	checkWords(t, "skip tail", sl.tails[0])

	// A tail keeps the zero word for life: nil right, no tag.
	for _, w := range []bool{
		l.tail.loadSucc() == clean[Node[int, string]](nil),
		sl.tails[0].loadSucc() == clean[SLNode[int, string]](nil),
		l.tail.right() == nil && !l.tail.marked(),
	} {
		if !w {
			t.Fatal("a tail's successor word is not (nil, 0, 0)")
		}
	}
}

// TestWordNeverTagsNil: rule (b) of word.go - a nil right pointer is never
// given a mark or a flag (a non-nil pointer into the zero page is fatal to
// the collector and to stack copying).
func TestWordNeverTagsNil(t *testing.T) {
	for name, fn := range map[string]func(){
		"flagged": func() { flagged[Node[int, int]](nil) },
		"marked":  func() { marked[SLNode[int, int]](nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s(nil) did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestWordsInstalledList(t *testing.T) {
	l := NewList[int, int]()
	l.Insert(nil, 10, 10)
	l.Insert(nil, 30, 30)
	n10 := l.Search(nil, 10)
	n30 := l.Search(nil, 30)
	if got := n10.loadSucc(); got != clean(n30) {
		t.Fatalf("10.succ = %v, want (30,0,0)", got)
	}
	if got := l.head.loadSucc(); got != clean(n10) {
		t.Fatalf("head.succ is not (10,0,0)")
	}
	if _, ok := l.Delete(nil, 30); !ok {
		t.Fatal("delete of 30 failed")
	}
	// The deleted node's successor field froze on (tail,1,0); 10 now
	// points at the tail with a clean word.
	if got := n30.loadSucc(); got != marked(l.tail) {
		t.Fatalf("deleted 30.succ = %v, want (tail,1,0)", got)
	}
	if got := n10.loadSucc(); got != clean(l.tail) {
		t.Fatalf("10.succ = %v, want (tail,0,0)", got)
	}
}

// TestWordABARestoresIdenticalWord shows the ABA the paper's word has by
// construction: after insert(20)+delete(20) between 10 and 30, node 10's
// successor field holds the bit-identical word it held before, so a C&S
// delayed across both operations succeeds.
func TestWordABARestoresIdenticalWord(t *testing.T) {
	l := NewList[int, int]()
	l.Insert(nil, 10, 10)
	l.Insert(nil, 30, 30)
	n10 := l.Search(nil, 10)
	before := n10.loadSucc()
	l.Insert(nil, 20, 20)
	if after := n10.loadSucc(); after == before {
		t.Fatal("insert of 20 did not change 10's successor word")
	}
	l.Delete(nil, 20)
	if after := n10.loadSucc(); after != before {
		t.Fatalf("10.succ = %v after insert+delete, want the identical word %v", after, before)
	}
}

func TestWordsInstalledSkipList(t *testing.T) {
	l := NewSkipList[int, int](WithRandomSource(zeroRng))
	l.Insert(nil, 10, 10)
	l.Insert(nil, 30, 30)
	n10 := l.Search(nil, 10)
	n30 := l.Search(nil, 30)
	if got := n10.loadSucc(); got != clean(n30) {
		t.Fatalf("10.succ = %v, want (30,0,0)", got)
	}
	before := n10.loadSucc()
	l.Insert(nil, 20, 20)
	l.Delete(nil, 20)
	if after := n10.loadSucc(); after != before {
		t.Fatalf("skip-list 10.succ not restored to the identical word after insert+delete")
	}
	if _, ok := l.Delete(nil, 30); !ok {
		t.Fatal("delete of 30 failed")
	}
	if got := n30.loadSucc(); got != marked(l.tails[0]) {
		t.Fatalf("deleted 30.succ = %v, want (level-1 tail,1,0)", got)
	}
}

// TestNodeSizeAndLayout pins what the word bought: no per-node records, and
// every field a skip-list search reads on a hop in the first 40 bytes.
func TestNodeSizeAndLayout(t *testing.T) {
	var sn SLNode[int, string]
	var ln Node[int, string]
	if got := unsafe.Sizeof(sn); got > 64 {
		t.Errorf("SLNode[int,string] is %d bytes, want <= 64 (one cache line)", got)
	}
	if got := unsafe.Sizeof(ln); got > 48 {
		t.Errorf("Node[int,string] is %d bytes, want <= 48", got)
	}
	for name, off := range map[string]uintptr{
		"key":       unsafe.Offsetof(sn.key),
		"succ":      unsafe.Offsetof(sn.succ),
		"towerRoot": unsafe.Offsetof(sn.towerRoot),
		"down":      unsafe.Offsetof(sn.down),
		"kind":      unsafe.Offsetof(sn.kind),
	} {
		if off >= 40 {
			t.Errorf("SLNode[int,string].%s at offset %d, want < 40", name, off)
		}
	}
	if unsafe.Alignof(sn) < 4 || unsafe.Alignof(ln) < 4 {
		t.Error("node alignment leaves no room for two tag bits")
	}
}
