package core

import (
	"math/rand/v2"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/instrument"
	"repro/internal/telemetry"
)

// rangedLists returns n skip lists, list i holding the even keys of
// [i*span, (i+1)*span), and the cuts function that partitions a sorted key
// slice among them - what sharded.Map does with its splitters.
func rangedLists(n, span int, opts ...SkipListOption) ([]*SkipList[int, int], func(keys []int) []int) {
	lists := make([]*SkipList[int, int], n)
	for i := range lists {
		lists[i] = NewSkipList[int, int](opts...)
		for k := i * span; k < (i+1)*span; k += 2 {
			lists[i].Insert(nil, k, k)
		}
	}
	cuts := func(keys []int) []int {
		c := make([]int, n+1)
		for i := 1; i < n; i++ {
			c[i], _ = slices.BinarySearch(keys, i*span)
		}
		c[n] = len(keys)
		return c
	}
	return lists, cuts
}

// TestDescentAcrossListsAgainstModel: batches of every width around the
// group size, over several lists at once - some of them untouched by a
// batch, keys repeated, keys absent - answer what point Gets answer,
// position by position, with and without result slices.
func TestDescentAcrossListsAgainstModel(t *testing.T) {
	const span = 512
	lists, cutsOf := rangedLists(5, span)
	rng := rand.New(rand.NewPCG(19, 19))
	for round := 0; round < 400; round++ {
		width := 1 + rng.IntN(3*descentWidth+5)
		keys := make([]int, width)
		lo := rng.IntN(4 * span)
		window := 1 + rng.IntN(5*span-lo) // narrow windows leave lists untouched
		for i := range keys {
			if i > 0 && rng.IntN(8) == 0 {
				keys[i] = keys[i-1] // a repeated key
			} else {
				keys[i] = lo + rng.IntN(window)
			}
		}
		slices.Sort(keys)
		cuts := cutsOf(keys)
		vals, found := make([]int, width), make([]bool, width)
		n := GetBatchAcross(nil, lists, cuts, keys, vals, found)
		want := 0
		for i, k := range keys {
			present := k%2 == 0
			if present {
				want++
			}
			if found[i] != present || (present && vals[i] != k) || (!present && vals[i] != 0) {
				t.Fatalf("round %d: position %d key %d: found=%t val=%d", round, i, k, found[i], vals[i])
			}
		}
		if n != want || GetBatchAcross(nil, lists, cuts, keys, nil, nil) != want {
			t.Fatalf("round %d: found %d keys, want %d", round, n, want)
		}
	}
}

// TestDescentRecordsAGroupOnce: at the sampling period lflserver runs, a
// batch reaches the recorder as one record per group of descentWidth keys -
// the operation count grows by the keys, the step counters by exactly the
// steps the batch paid, the latency histogram by one sample per key - and
// the caller's own counters see the same steps. The first key of a group on
// each list is a finger miss, the rest are hits.
func TestDescentRecordsAGroupOnce(t *testing.T) {
	lists, cutsOf := rangedLists(2, 4096)
	rec := telemetry.NewRecorder(1)
	rec.SetSampleEvery(1)
	for _, l := range lists {
		l.SetTelemetry(rec)
	}
	before := rec.Snapshot()
	keys := make([]int, 2*descentWidth+8) // groups of 16, 16 and 8
	for i := range keys {
		keys[i] = 200 * i // 21 keys on the first list, 19 on the second
	}
	st := &OpStats{}
	if n := GetBatchAcross(&Proc{Stats: st}, lists, cutsOf(keys), keys, nil, nil); n != len(keys) {
		t.Fatalf("found %d of %d keys", n, len(keys))
	}
	d := rec.Snapshot().Sub(before)
	get := d.Ops[telemetry.OpGet]
	if get.Count != uint64(len(keys)) || get.Latency.Count != uint64(len(keys)) || get.Retries.Count != uint64(len(keys)) {
		t.Fatalf("recorded %d gets, %d latency and %d retry samples for %d keys", get.Count, get.Latency.Count, get.Retries.Count, len(keys))
	}
	if get.Latency.Sum == 0 {
		t.Fatal("no elapsed time recorded")
	}
	if st.EssentialSteps() == 0 || d.Counters.EssentialSteps() != st.EssentialSteps() {
		t.Fatalf("recorder saw %d essential steps, the caller's Proc %d", d.Counters.EssentialSteps(), st.EssentialSteps())
	}
	// Keys 0..20 fall on the first list, so the second group (keys 16..31)
	// touches both lists: four segments start at a head in all.
	if st.FingerMisses != 4 || st.FingerHits != uint64(len(keys))-4 || d.Counters.FingerMisses != 4 {
		t.Fatalf("finger hits/misses = %d/%d (recorder: %d misses), want %d/4", st.FingerHits, st.FingerMisses, d.Counters.FingerMisses, len(keys)-4)
	}

	// At the default period the count stays exact, and the members sampled
	// are those that fall on the period, as if the keys had come one by one.
	const period = telemetry.DefaultSampleEvery
	rec.SetSampleEvery(period)
	before = rec.Snapshot()
	GetBatchAcross(nil, lists, cutsOf(keys), keys, nil, nil)
	get = rec.Snapshot().Sub(before).Ops[telemetry.OpGet]
	done := before.Ops[telemetry.OpGet].Count
	if want := (done+uint64(len(keys)))/period - done/period; get.Count != uint64(len(keys)) || get.Latency.Count != want {
		t.Fatalf("period %d: %d gets, %d latency samples for %d keys after %d gets, want %d samples", period, get.Count, get.Latency.Count, len(keys), done, want)
	}
}

// TestDescentFiresSearchDoneOncePerRound: however many keys and segments a
// group holds, PtSearchDone fires once for each round of the descent, so a
// schedule can stop a batch between any two rounds. A round moves every
// key by one examined successor, which makes the rounds of a batch those
// of its slowest key.
func TestDescentFiresSearchDoneOncePerRound(t *testing.T) {
	l := seededSkipList(1 << 10)
	rounds := func(keys ...int) int {
		fired := 0
		p := &Proc{Hooks: instrument.HookFunc(func(pt Point, _ int) {
			if pt == PtSearchDone {
				fired++
			}
		})}
		if n := l.GetBatch(p, keys, nil, nil); n != len(keys) {
			t.Fatalf("GetBatch(%v) found %d keys", keys, n)
		}
		return fired
	}
	keys := []int{3, 77, 300, 301, 640, 1000}
	slowest := 0
	for _, k := range keys {
		slowest = max(slowest, rounds(k))
	}
	if got := rounds(keys...); got != slowest || got == 0 {
		t.Fatalf("a batch of %v took %d rounds, its slowest key alone %d", keys, got, slowest)
	}
}

// TestRecycleDescentPinsEveryList: with recycling on, a descent group holds
// a pin on every list it touches from its first round to its last, so a
// tower retired meanwhile on either list is not recycled under it.
func TestRecycleDescentPinsEveryList(t *testing.T) {
	lists, cutsOf := rangedLists(2, 256, WithRecycling())
	churn := func() {
		for _, l := range lists {
			for i := 0; i < 128; i++ {
				l.Insert(nil, 1001, i)
				l.Delete(nil, 1001)
			}
			for i := 0; i < 6; i++ {
				l.ForceReclaim(nil)
			}
		}
	}
	fired := false
	p := &Proc{Hooks: instrument.HookFunc(func(pt Point, _ int) {
		if pt != PtSearchDone || fired {
			return
		}
		fired = true
		churn()
		for i, l := range lists {
			if recycled, _ := l.RecycleCounts(); recycled != 0 {
				t.Errorf("list %d recycled %d towers under a descent in flight", i, recycled)
			}
		}
	})}
	keys := []int{10, 20, 300, 310}
	if n := GetBatchAcross(p, lists, cutsOf(keys), keys, nil, nil); n != len(keys) || !fired {
		t.Fatalf("found %d of %d keys, hook fired: %t", n, len(keys), fired)
	}
	churn()
	for i, l := range lists {
		if recycled, _ := l.RecycleCounts(); recycled == 0 {
			t.Errorf("list %d recycled nothing after the descent released its pin", i)
		}
		if err := l.CheckStructure(); err != nil {
			t.Errorf("list %d: %v", i, err)
		}
	}
}

// TestDescentConcurrentChurn runs descents through two lists whose odd keys
// other goroutines insert and delete without pause, with and without tower
// recycling, so that successors turn marked or superfluous under the
// readers' feet. Whatever the schedule, a key that is never touched is
// found with its value, a key that is never inserted is not, and the lists
// stay well formed. The race leg of the gate runs this one too.
func TestDescentConcurrentChurn(t *testing.T) {
	const span = 256
	for _, recycle := range []bool{false, true} {
		var opts []SkipListOption
		if recycle {
			opts = append(opts, WithRecycling())
		}
		lists, cutsOf := rangedLists(2, span, opts...) // even keys, never touched again
		var stop atomic.Bool
		var writers, readers sync.WaitGroup
		for w := 0; w < 2; w++ {
			writers.Add(1)
			go func(w int) {
				defer writers.Done()
				rng := rand.New(rand.NewPCG(uint64(w), 19))
				for !stop.Load() {
					k := 4*rng.IntN(span/2) + 1 // 1 mod 4; 3 mod 4 is never inserted
					l := lists[k/span]
					if rng.IntN(2) == 0 {
						l.Insert(nil, k, -k)
					} else {
						l.Delete(nil, k)
					}
				}
			}(w)
		}
		var helped atomic.Uint64
		for r := 0; r < 2; r++ {
			readers.Add(1)
			go func(r int) {
				defer readers.Done()
				rng := rand.New(rand.NewPCG(uint64(r), 2004))
				st := &OpStats{}
				p := &Proc{Stats: st}
				keys := make([]int, 24)
				vals, found := make([]int, len(keys)), make([]bool, len(keys))
				for b := 0; b < 3000; b++ {
					for i := range keys {
						keys[i] = rng.IntN(2 * span)
					}
					slices.Sort(keys)
					GetBatchAcross(p, lists, cutsOf(keys), keys, vals, found)
					for i, k := range keys {
						switch k % 4 {
						case 0, 2:
							if !found[i] || vals[i] != k {
								t.Errorf("recycle=%t: untouched key %d: found=%t val=%d", recycle, k, found[i], vals[i])
								return
							}
						case 1:
							if found[i] && vals[i] != -k {
								t.Errorf("recycle=%t: churned key %d found with value %d", recycle, k, vals[i])
								return
							}
						case 3:
							if found[i] {
								t.Errorf("recycle=%t: key %d was never inserted and is reported found", recycle, k)
								return
							}
						}
					}
				}
				helped.Add(st.HelpCalls)
			}(r)
		}
		readers.Wait()
		stop.Store(true)
		writers.Wait()
		t.Logf("recycle=%t: descents made %d help calls", recycle, helped.Load())
		for i, l := range lists {
			if err := l.CheckStructure(); err != nil {
				t.Errorf("recycle=%t list %d: %v", recycle, i, err)
			}
		}
	}
}
