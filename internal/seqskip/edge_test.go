package seqskip

import (
	"testing"

	"repro/internal/heights"
)

func TestSeqSkipLevelShrinksAfterDeletes(t *testing.T) {
	l := New[int, int](0, 7)
	for i := 0; i < 1000; i++ {
		l.Insert(i, i)
	}
	grown := l.level
	for i := 0; i < 1000; i++ {
		l.Delete(i)
	}
	if l.Len() != 0 {
		t.Fatalf("Len = %d", l.Len())
	}
	if l.level != 1 {
		t.Fatalf("level = %d after emptying (was %d)", l.level, grown)
	}
	// The list is reusable after emptying.
	if !l.Insert(5, 5) {
		t.Fatal("reinsert failed")
	}
	if v, ok := l.Get(5); !ok || v != 5 {
		t.Fatalf("Get(5) = %d, %t", v, ok)
	}
}

func TestSeqSkipHeightsEmpty(t *testing.T) {
	l := New[int, int](0, heights.DefaultSeed)
	for _, c := range l.Heights() {
		if c != 0 {
			t.Fatal("empty list has towers")
		}
	}
}

func TestSeqSkipAscendEarlyStop(t *testing.T) {
	l := New[int, int](0, 1)
	for i := 0; i < 20; i++ {
		l.Insert(i, i)
	}
	n := 0
	// fn returns true for keys 0-4 and false at key 5: six visits total.
	l.Ascend(func(k, _ int) bool { n++; return k < 5 })
	if n != 6 {
		t.Fatalf("visited %d, want 6", n)
	}
}

func TestSeqSkipMaxLevelFloor(t *testing.T) {
	l := New[int, int](1, heights.DefaultSeed) // clamped to default
	if l.maxLevel < 2 {
		t.Fatalf("maxLevel = %d", l.maxLevel)
	}
}

func TestSeqSkipSearchStepsPositive(t *testing.T) {
	l := New[int, int](0, 2)
	for i := 0; i < 100; i++ {
		l.Insert(i, i)
	}
	if got := l.SearchSteps(50); got <= 0 {
		t.Fatalf("SearchSteps = %d", got)
	}
}
