package history

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"sort"
	"testing"
)

// The reference checker is the Wing-Gong search with memoization that
// Check replaced: exhaustive over the orders of each quiescent segment, so
// obviously exact, and exponential, so it memoizes linearized sets in a
// uint64 and takes at most 63 ops per segment. The tests below hold the
// greedy pass to it on small histories.

// refCheck reports whether ops are linearizable according to the
// reference search.
func refCheck(ops []Op) bool {
	byKey := make(map[int][]Op)
	for _, o := range ops {
		byKey[o.Key] = append(byKey[o.Key], o)
	}
	for _, kops := range byKey {
		if !refCheckKey(kops) {
			return false
		}
	}
	return true
}

// refCheckKey checks one key's sub-history against the presence-bit
// object, split into segments at quiescent cuts.
func refCheckKey(ops []Op) bool {
	sort.Slice(ops, func(i, j int) bool { return ops[i].Start < ops[j].Start })
	state := false
	segStart := 0
	maxEnd := int64(-1)
	for i, o := range ops {
		if i > segStart && o.Start > maxEnd {
			var ok bool
			state, ok = refCheckSegment(ops[segStart:i], state)
			if !ok {
				return false
			}
			segStart = i
		}
		if o.End > maxEnd {
			maxEnd = o.End
		}
		if i-segStart >= 63 {
			panic(fmt.Sprintf("reference checker: segment of %d ops exceeds its 63-op mask", i-segStart+1))
		}
	}
	if segStart < len(ops) {
		if _, ok := refCheckSegment(ops[segStart:], state); !ok {
			return false
		}
	}
	return true
}

// refNode identifies a search node: the set of already-linearized ops plus
// the presence state.
type refNode struct {
	mask  uint64
	state bool
}

// refCheckSegment runs Wing-Gong search over one segment. It returns the
// final state (determined by the parity of successful updates) and whether
// a valid linearization exists.
func refCheckSegment(ops []Op, initial bool) (bool, bool) {
	final := initial
	for _, o := range ops {
		if (o.Kind == KindInsert || o.Kind == KindDelete) && o.Result {
			final = !final
		}
	}
	n := len(ops)
	full := uint64(1)<<n - 1
	seen := make(map[refNode]bool)
	var dfs func(mask uint64, state bool) bool
	dfs = func(mask uint64, state bool) bool {
		if mask == full {
			return true
		}
		mk := refNode{mask, state}
		if seen[mk] {
			return false
		}
		seen[mk] = true
		// minEnd over un-linearized ops: an op is a legal next choice
		// only if no un-linearized op responded before it was invoked.
		minEnd := int64(1<<62 - 1)
		for i := 0; i < n; i++ {
			if mask&(1<<i) == 0 && ops[i].End < minEnd {
				minEnd = ops[i].End
			}
		}
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				continue
			}
			o := ops[i]
			if o.Start > minEnd {
				continue // real-time order forbids linearizing o yet
			}
			next, ok := refApply(o, state)
			if !ok {
				continue
			}
			if dfs(mask|1<<i, next) {
				return true
			}
		}
		return false
	}
	return final, dfs(0, initial)
}

// refApply checks o against the presence-bit spec in the given state and
// returns the next state.
func refApply(o Op, present bool) (bool, bool) {
	switch o.Kind {
	case KindSearch:
		return present, o.Result == present
	case KindInsert:
		if o.Result != !present {
			return present, false
		}
		return true, true
	case KindDelete:
		if o.Result != present {
			return present, false
		}
		return false, true
	default:
		return present, false
	}
}

// agree runs both checkers on ops and describes any disagreement. A
// rejection from Check must be a *Violation.
func agree(ops []Op) error {
	want := refCheck(append([]Op(nil), ops...))
	err := Check(ops)
	var v *Violation
	switch {
	case err != nil && !errors.As(err, &v):
		return fmt.Errorf("Check returned %T, want *Violation: %v", err, err)
	case (err == nil) != want:
		return fmt.Errorf("Check = %v, reference linearizable = %t\n%v", err, want, ops)
	}
	return nil
}

// diffCase builds differential case seed: one key and 1-14 ops. Even seeds
// draw random kinds, results and intervals; odd seeds run a serial script
// against the presence bit, widen each response, and flip one result half
// of the time.
func diffCase(seed uint64) []Op {
	rng := rand.New(rand.NewPCG(seed, 0x5eed))
	n := 1 + rng.IntN(14)
	ops := make([]Op, n)
	if seed%2 == 0 {
		for i := range ops {
			start := rng.Int64N(int64(2 * n))
			ops[i] = Op{Kind: Kind(1 + rng.IntN(3)), Result: rng.IntN(2) == 1,
				Start: start, End: start + rng.Int64N(int64(n)), Proc: i}
		}
		return ops
	}
	present := false
	for i := range ops {
		o := Op{Kind: Kind(1 + rng.IntN(3)), Start: int64(2 * i), End: int64(2*i + 1), Proc: i}
		switch o.Kind {
		case KindSearch:
			o.Result = present
		case KindInsert:
			o.Result, present = !present, true
		case KindDelete:
			o.Result, present = present, false
		}
		o.End += rng.Int64N(8)
		ops[i] = o
	}
	if rng.IntN(2) == 1 {
		j := rng.IntN(n)
		ops[j].Result = !ops[j].Result
	}
	return ops
}

// TestCheckMatchesReference holds Check to the reference search on
// 100 000 seeded one-key histories of at most 14 ops. Both verdicts must
// be common, or the comparison says little.
func TestCheckMatchesReference(t *testing.T) {
	const cases, base = 100_000, 1 << 32
	linearizable := 0
	for seed := uint64(base); seed < base+cases; seed++ {
		ops := diffCase(seed)
		if err := agree(ops); err != nil {
			t.Fatalf("diffCase(%d): %v", seed, err)
		}
		if Check(ops) == nil {
			linearizable++
		}
	}
	t.Logf("%d of %d histories linearizable", linearizable, cases)
	if linearizable < cases/5 || linearizable > cases*4/5 {
		t.Fatalf("%d of %d histories linearizable: the cases are too one-sided", linearizable, cases)
	}
}

// FuzzCheck compares Check with the reference on histories of at most 16
// ops over two keys, three bytes an op: the first holds the kind (low two
// bits), the result (bit 2) and the key (bit 3), the second the invocation
// and the third the duration.
func FuzzCheck(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 1})                              // a search that misses
	f.Add([]byte{4, 0, 1})                              // a search that finds an absent key
	f.Add([]byte{5, 0, 9, 5, 1, 9})                     // two overlapping successful inserts
	f.Add([]byte{5, 0, 9, 6, 1, 9, 0, 2, 9, 4, 3, 9})   // insert, delete and both reads, all overlapping
	f.Add([]byte{5, 0, 1, 13, 0, 1, 4, 2, 1, 12, 2, 1}) // two keys, inserted then found
	f.Fuzz(func(t *testing.T, data []byte) {
		var ops []Op
		for i := 0; i+3 <= len(data) && len(ops) < 16; i += 3 {
			b := data[i]
			start := int64(data[i+1] % 32)
			ops = append(ops, Op{Kind: Kind(1 + (b&3)%3), Result: b&4 != 0, Key: int(b >> 3 & 1),
				Start: start, End: start + int64(data[i+2]%16), Proc: len(ops)})
		}
		if err := agree(ops); err != nil {
			t.Fatal(err)
		}
	})
}
