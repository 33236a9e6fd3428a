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

	sl := NewSkipList[int, string]()
	sl.SetHeights(func(int) int { return 2 })
	for _, k := range []int{10, 20, 30} {
		sl.Insert(nil, k, "v")
	}
	checkWords(t, "skip head", sl.head)
	checkWords(t, "skip interior", sl.Search(nil, 20))
	checkWords(t, "skip interior via level 2", sl.head.cell(2).right().cell(2).right())
	checkWords(t, "skip tail-adjacent", sl.Search(nil, 30))
	checkWords(t, "skip tail", sl.tail)

	// A tail keeps the zero word for life: nil right, no tag.
	for _, w := range []bool{
		l.tail.loadSucc() == clean[SLNode[int, string]](nil),
		sl.tail.loadSucc() == clean[SLNode[int, string]](nil),
		sl.tail.cell(sl.maxLevel).loadSucc() == clean[SLNode[int, string]](nil),
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
		"flagged": func() { flagged[SLNode[int, int]](nil) },
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
	l := rigged(allHeight(1))
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
	if got := n30.loadSucc(); got != marked(l.tail) {
		t.Fatalf("deleted 30.succ = %v, want (tail,1,0)", got)
	}
}

// TestNodeSizeAndLayout pins what the word and the tower object bought: no
// per-node records, a 48-byte tower header whose key sits against the
// level-1 word, and a bucket family that wastes nothing of Go's size
// classes up to height 16.
func TestNodeSizeAndLayout(t *testing.T) {
	var sn SLNode[int, string]
	var ln SLNode[int, string]
	if got := unsafe.Sizeof(sn); got > 48 {
		t.Errorf("SLNode[int,string] is %d bytes, want <= 48", got)
	}
	if got := unsafe.Sizeof(ln); got > 48 {
		t.Errorf("SLNode[int,string] is %d bytes, want <= 48", got)
	}
	if got := unsafe.Offsetof(sn.succ) - unsafe.Offsetof(sn.key); got != 8 {
		t.Errorf("SLNode[int,string]: the level-1 word is %d bytes after the key, want 8", got)
	}
	if unsafe.Offsetof(sn.kind)/8 != unsafe.Offsetof(sn.towerLive)/8 || unsafe.Offsetof(sn.height)/8 != unsafe.Offsetof(sn.kind)/8 {
		t.Error("SLNode[int,string]: kind, height and towerLive do not share a word")
	}
	if unsafe.Alignof(sn) < 4 || unsafe.Alignof(ln) < 4 {
		t.Error("node alignment leaves no room for two tag bits")
	}
	hdr, cell := unsafe.Sizeof(sn), unsafe.Sizeof(sn.slCell)
	if cell != 16 {
		t.Errorf("slCell is %d bytes, want 16", cell)
	}
	type cells = slCell[int, string]
	var (
		t2  towerOf[int, string, [1]cells]
		t3  towerOf[int, string, [2]cells]
		t4  towerOf[int, string, [3]cells]
		t8  towerOf[int, string, [7]cells]
		t16 towerOf[int, string, [15]cells]
		t32 towerOf[int, string, [31]cells]
		t64 towerOf[int, string, [63]cells]
	)
	for _, b := range []struct {
		cells          int
		size, upOffset uintptr
		class          uintptr // the Go size class it must fill exactly; 0: none that small
	}{
		{2, unsafe.Sizeof(t2), unsafe.Offsetof(t2.up), 64},
		{3, unsafe.Sizeof(t3), unsafe.Offsetof(t3.up), 80},
		{4, unsafe.Sizeof(t4), unsafe.Offsetof(t4.up), 96},
		{8, unsafe.Sizeof(t8), unsafe.Offsetof(t8.up), 160},
		{16, unsafe.Sizeof(t16), unsafe.Offsetof(t16.up), 288},
		{32, unsafe.Sizeof(t32), unsafe.Offsetof(t32.up), 0},
		{64, unsafe.Sizeof(t64), unsafe.Offsetof(t64.up), 0},
	} {
		if want := hdr + cell*uintptr(b.cells-1); b.size != want {
			t.Errorf("the %d-cell bucket of [int,string] is %d bytes, want header + %d cells = %d", b.cells, b.size, b.cells-1, want)
		}
		if b.class != 0 && b.size != b.class {
			t.Errorf("the %d-cell bucket of [int,string] is %d bytes, want the %d-byte size class exactly", b.cells, b.size, b.class)
		}
		// cell() reaches level 2 at the header's end: the bucket types must
		// put their cells exactly there.
		if b.upOffset != hdr {
			t.Errorf("the %d-cell bucket of [int,string]: cells start at offset %d, the header ends at %d", b.cells, b.upOffset, hdr)
		}
	}
	for i, c := range towerCaps {
		if i > 0 && towerCaps[i-1] >= c {
			t.Fatalf("towerCaps %v is not increasing", towerCaps)
		}
		n := allocTower[int, string](c)
		if n.Height() != c || len(n.spare()) != 0 {
			t.Errorf("allocTower(%d): height %d, %d spare cells", c, n.Height(), len(n.spare()))
		}
		// Under -race, checkptr fails this store if allocTower allocated a
		// smaller struct than the bucket's.
		n.cell(c).succ.store(clean(n))
		if h := c - 1; i > 0 && h > towerCaps[i-1] {
			if n := allocTower[int, string](h); towerBucket(h) != i || len(n.spare()) != 1 {
				t.Errorf("allocTower(%d): bucket %d with %d spare cells, want bucket %d with 1", h, towerBucket(h), len(n.spare()), i)
			}
		}
	}
	if towerCaps[len(towerCaps)-1] != maxFingerLevels {
		t.Errorf("largest bucket holds %d cells, the level clamp is %d", towerCaps[len(towerCaps)-1], maxFingerLevels)
	}
}

// TestCellBounds: rule (c) of word.go - a cell is addressed only on a level
// the tower has, whatever room its bucket has left.
func TestCellBounds(t *testing.T) {
	n := allocTower[int, string](5) // bucket of 8
	for lv := 1; lv <= 5; lv++ {
		c := n.cell(lv)
		c.succ.store(flagged(n))
		if n.cell(lv).loadSucc() != flagged(n) {
			t.Fatalf("level %d: the cell does not keep its word", lv)
		}
	}
	if n.loadSucc() != flagged(n) || n.cell(1) != &n.slCell {
		t.Fatal("cell(1) is not the header's cell")
	}
	for i, sp := 0, n.spare(); i < len(sp); i++ {
		if sp[i].loadSucc() != (word[SLNode[int, string]]{}) {
			t.Fatalf("writing levels 1-5 reached spare cell %d", i)
		}
	}
	for _, lv := range []int{0, -1, 6, 8, 9, 1 << 40} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("cell(%d) on a tower of height 5 did not panic", lv)
				}
			}()
			n.cell(lv)
		}()
	}
}
