package history

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
)

// genSerialHistory executes a random op script against a model dictionary
// sequentially, stamping non-overlapping intervals; such a history is
// linearizable by construction.
func genSerialHistory(ops []uint8, keys []uint8) []Op {
	model := map[int]bool{}
	var hist []Op
	clock := int64(0)
	n := min(len(ops), len(keys))
	for i := 0; i < n; i++ {
		k := int(keys[i]) % 8
		clock++
		start := clock
		clock++
		end := clock
		switch ops[i] % 3 {
		case 0:
			res := !model[k]
			model[k] = true
			hist = append(hist, Op{Kind: KindInsert, Key: k, Result: res, Start: start, End: end})
		case 1:
			res := model[k]
			delete(model, k)
			hist = append(hist, Op{Kind: KindDelete, Key: k, Result: res, Start: start, End: end})
		default:
			hist = append(hist, Op{Kind: KindSearch, Key: k, Result: model[k], Start: start, End: end})
		}
	}
	return hist
}

// TestQuickSerialHistoriesAccepted: every sequentially generated history
// must pass the checker.
func TestQuickSerialHistoriesAccepted(t *testing.T) {
	f := func(ops []uint8, keys []uint8) bool {
		return Check(genSerialHistory(ops, keys)) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickWidenedIntervalsStillAccepted: widening response times (ops
// overlap more) can only add legal linearizations, never remove them.
func TestQuickWidenedIntervalsStillAccepted(t *testing.T) {
	var seed uint64
	f := func(ops []uint8, keys []uint8, widen uint8) bool {
		seed++
		hist := genSerialHistory(ops, keys)
		rng := rand.New(rand.NewPCG(seed, 1))
		for i := range hist {
			hist[i].End += int64(rng.Uint64N(uint64(widen)%16 + 1))
		}
		return Check(hist) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickResultFlipRejected: flipping the result of a random update in a
// serial history must make it non-linearizable (for searches, flipping a
// result in a non-overlapping history is always wrong).
func TestQuickResultFlipRejected(t *testing.T) {
	var seed uint64
	f := func(ops []uint8, keys []uint8) bool {
		hist := genSerialHistory(ops, keys)
		if len(hist) == 0 {
			return true
		}
		seed++
		rng := rand.New(rand.NewPCG(seed, 2))
		i := int(rng.Uint64N(uint64(len(hist))))
		hist[i].Result = !hist[i].Result
		return Check(hist) != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
