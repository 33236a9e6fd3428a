package history

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
)

// The reference checker is the Wing-Gong search with memoization that
// Check replaced, extended to the crash cut: exhaustive over the orders of
// each key's ops, so obviously exact, and exponential, so it memoizes
// done sets in a uint64 and takes at most 64 ops per key. The tests below
// hold the greedy pass to it on small histories.

// refCheck reports whether ops are durably linearizable according to the
// reference search. It states the crash cut as interval edits: the crash
// is the earliest pending End, an op invoked by then responds by then, a
// pending op invoked after it is gone, and a pending search is gone too.
func refCheck(ops []Op) bool {
	crash := int64(1<<62 - 1)
	for _, o := range ops {
		if o.Pending {
			crash = min(crash, o.End)
		}
	}
	byKey := make(map[int][]Op)
	for _, o := range ops {
		if o.Start <= crash {
			o.End = min(o.End, crash)
		} else if o.Pending {
			continue
		}
		if !o.Pending || o.Kind != KindSearch {
			byKey[o.Key] = append(byKey[o.Key], o)
		}
	}
	for _, kops := range byKey {
		if !refCheckKey(kops) {
			return false
		}
	}
	return true
}

// refNode identifies a search node: the set of ops already linearized or
// dropped, plus the presence state.
type refNode struct {
	mask  uint64
	state bool
}

// refCheckKey runs Wing-Gong search over one key's ops against the
// presence-bit object. An op may go next iff no op still to place
// responded before it was invoked; a pending op may also be dropped at any
// point. The search succeeds once every completed op is placed.
func refCheckKey(ops []Op) bool {
	n := len(ops)
	if n > 64 {
		panic(fmt.Sprintf("reference checker: %d ops on one key exceed its 64-op mask", n))
	}
	var required uint64
	for i, o := range ops {
		if !o.Pending {
			required |= 1 << i
		}
	}
	seen := make(map[refNode]bool)
	var dfs func(mask uint64, state bool) bool
	dfs = func(mask uint64, state bool) bool {
		if mask&required == required {
			return true
		}
		mk := refNode{mask, state}
		if seen[mk] {
			return false
		}
		seen[mk] = true
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
			if o.Pending && dfs(mask|1<<i, state) {
				return true // dropped
			}
			if o.Start > minEnd {
				continue // real-time order forbids linearizing o yet
			}
			next, ok := refApply(o, state)
			if ok && dfs(mask|1<<i, next) {
				return true
			}
		}
		return false
	}
	return dfs(0, false)
}

// refApply checks o against the presence-bit spec in the given state and
// returns the next state. A pending update takes effect, so it must
// succeed.
func refApply(o Op, present bool) (bool, bool) {
	switch o.Kind {
	case KindSearch:
		return present, o.Result == present
	case KindInsert:
		if !o.Pending && o.Result != !present || o.Pending && present {
			return present, false
		}
		return true, true
	case KindDelete:
		if !o.Pending && o.Result != present || o.Pending && !present {
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
// draw random kinds, results, intervals and pending flags; odd seeds run a
// serial script against the presence bit, widen each response, and flip
// one result half of the time. Half the scripts crash: up to three ops in
// a row are abandoned, each taking effect or not, and respond after the
// last of them was invoked, so most ops after them follow the crash.
func diffCase(seed uint64) []Op {
	rng := rand.New(rand.NewPCG(seed, 0x5eed))
	n := 1 + rng.IntN(14)
	ops := make([]Op, n)
	if seed%2 == 0 {
		for i := range ops {
			start := rng.Int64N(int64(2 * n))
			ops[i] = Op{Kind: Kind(1 + rng.IntN(3)), Result: rng.IntN(2) == 1, Pending: rng.IntN(4) == 0,
				Start: start, End: start + rng.Int64N(int64(n)), Proc: i}
		}
		return ops
	}
	crash := n
	if rng.IntN(2) == 1 {
		crash = rng.IntN(n)
	}
	present := false
	for i := range ops {
		o := Op{Kind: Kind(1 + rng.IntN(3)), Start: int64(2 * i), End: int64(2*i + 1), Proc: i}
		o.End += rng.Int64N(8)
		if i >= crash && i < crash+3 {
			o.Pending, o.End = true, int64(2*(crash+3))+rng.Int64N(4)
			if rng.IntN(2) == 0 {
				ops[i] = o
				continue // it never took effect
			}
		}
		switch o.Kind {
		case KindSearch:
			o.Result = present
		case KindInsert:
			o.Result, present = !present, true
		case KindDelete:
			o.Result, present = present, false
		}
		ops[i] = o
	}
	if rng.IntN(2) == 1 {
		j := rng.IntN(n)
		ops[j].Result = !ops[j].Result
	}
	return ops
}

// TestCheckMatchesReference holds Check to the reference search on
// 100 000 seeded one-key histories of at most 14 ops, about two thirds of
// them with a crash cut. Both verdicts must be common, with and without a
// crash, or the comparison says little.
func TestCheckMatchesReference(t *testing.T) {
	const cases, base = 100_000, 1 << 32
	var total, linearizable [2]int // indexed by whether the history crashed
	for seed := uint64(base); seed < base+cases; seed++ {
		ops := diffCase(seed)
		if err := agree(ops); err != nil {
			t.Fatalf("diffCase(%d): %v", seed, err)
		}
		crashed := 0
		if slices.ContainsFunc(ops, func(o Op) bool { return o.Pending }) {
			crashed = 1
		}
		total[crashed]++
		if Check(ops) == nil {
			linearizable[crashed]++
		}
	}
	for crashed, name := range []string{"without a crash", "with a crash"} {
		t.Logf("%d of %d histories %s linearizable", linearizable[crashed], total[crashed], name)
		if n := total[crashed]; n < cases/10 || linearizable[crashed] < n/5 || linearizable[crashed] > n*4/5 {
			t.Fatalf("%d of %d histories %s linearizable: the cases are too one-sided", linearizable[crashed], n, name)
		}
	}
}

// FuzzCheck compares Check with the reference on histories of at most 16
// ops over two keys, three bytes an op: the first holds the kind (low two
// bits), the result (bit 2), the key (bit 3) and whether the op is pending
// (bit 4), the second the invocation and the third the duration.
func FuzzCheck(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 1})                              // a search that misses
	f.Add([]byte{4, 0, 1})                              // a search that finds an absent key
	f.Add([]byte{5, 0, 9, 5, 1, 9})                     // two overlapping successful inserts
	f.Add([]byte{5, 0, 9, 6, 1, 9, 0, 2, 9, 4, 3, 9})   // insert, delete and both reads, all overlapping
	f.Add([]byte{5, 0, 1, 13, 0, 1, 4, 2, 1, 12, 2, 1}) // two keys, inserted then found
	f.Add([]byte{17, 0, 5, 4, 6, 1})                    // a pending insert explains a find after the crash
	f.Add([]byte{17, 0, 5, 4, 6, 1, 0, 8, 1})           // but not a miss after that find
	f.Add([]byte{17, 0, 9, 6, 1, 2})                    // an acked delete needs the pending insert
	f.Add([]byte{16, 0, 3, 4, 4, 1})                    // a pending search explains nothing
	f.Add([]byte{5, 0, 1, 18, 2, 6, 25, 3, 4, 0, 9, 1}) // pending deletes on two keys, then a miss
	f.Fuzz(func(t *testing.T, data []byte) {
		var ops []Op
		for i := 0; i+3 <= len(data) && len(ops) < 16; i += 3 {
			b := data[i]
			start := int64(data[i+1] % 32)
			ops = append(ops, Op{Kind: Kind(1 + (b&3)%3), Result: b&4 != 0, Key: int(b >> 3 & 1), Pending: b&16 != 0,
				Start: start, End: start + int64(data[i+2]%16), Proc: len(ops)})
		}
		if err := agree(ops); err != nil {
			t.Fatal(err)
		}
	})
}
