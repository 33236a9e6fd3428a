package heights

import (
	"math"
	"testing"
)

func TestOfInvertsBits(t *testing.T) {
	for h := 1; h <= 31; h++ {
		if got := Of(Bits(h), 32); got != h {
			t.Errorf("Of(Bits(%d), 32) = %d", h, got)
		}
	}
	if got := Of(Bits(40), 8); got != 7 {
		t.Errorf("height 40 under maxLevel 8 = %d, want the cap 7", got)
	}
	if got := Of(^uint64(0), 2); got != 1 {
		t.Errorf("a list's tower is %d levels high, want 1", got)
	}
	// Two bits a level: a lone trailing one is not a level.
	for b, want := range map[uint64]int{0: 1, 0b1: 1, 0b11: 2, 0b0111: 2, 0b1111: 3} {
		if got := Of(b, 32); got != want {
			t.Errorf("Of(%#b) = %d, want %d", b, got, want)
		}
	}
}

func TestMass(t *testing.T) {
	sum := 0.0
	for h := 1; h <= 40; h++ {
		sum += Mass(h)
	}
	if Mass(1) != 0.75 || Mass(3) != 0.75/16 || math.Abs(sum-1) > 1e-12 {
		t.Fatalf("Mass(1) = %v, Mass(3) = %v, total %v", Mass(1), Mass(3), sum)
	}
}

// TestKeyFollowsValue: a named type hashes as its underlying type, and
// the keys cmp.Compare calls equal (-0 and +0, any two NaNs) hash alike.
func TestKeyFollowsValue(t *testing.T) {
	type id int
	type name string
	type weight float32
	for k := -300; k <= 300; k += 7 {
		if Key(7, id(k)) != Key(7, k) {
			t.Fatalf("id(%d) and %d hash apart", k, k)
		}
	}
	if Key(7, name("tower")) != Key(7, "tower") || Key(7, weight(1.5)) != Key(7, float32(1.5)) {
		t.Fatal("a named string or float hashes apart from its value")
	}
	if Key(7, math.Copysign(0, -1)) != Key(7, 0.0) {
		t.Fatal("-0 and +0 hash apart")
	}
	if Key(7, math.NaN()) != Key(7, math.Float64frombits(0x7ff8000000000001)) {
		t.Fatal("two NaNs hash apart")
	}
	if Key(7, "ab") == Key(7, "ab\x00") || Key(7, 5) == Key(8, 5) {
		t.Fatal("distinct strings or distinct seeds collide")
	}
}

func TestSourceIsSeeded(t *testing.T) {
	a, b, c := NewSource(1), NewSource(1), NewSource(2)
	for i := 0; i < 100; i++ {
		x, y, z := a.Next(), b.Next(), c.Next()
		if x != y || x == z {
			t.Fatalf("draw %d: seed 1 gave %#x and %#x, seed 2 %#x", i, x, y, z)
		}
	}
}
