package harris

import (
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"testing"
)

// TestHarrisSkipListAccounting cross-checks Len against the number of
// successful inserts minus successful deletes, and against the final
// traversal, to localize any size-accounting bug.
func TestHarrisSkipListAccounting(t *testing.T) {
	for round := 0; round < 30; round++ {
		l := NewSkipList[int, int](0, uint64(round))
		const workers, ops, keyRange = 8, 2000, 48
		var insWins, delWins atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewPCG(uint64(w), uint64(round)))
				for i := 0; i < ops; i++ {
					k := int(rng.Uint64N(keyRange))
					switch rng.Uint64N(3) {
					case 0:
						if l.Insert(nil, k, k) {
							insWins.Add(1)
						}
					case 1:
						if l.Delete(nil, k) {
							delWins.Add(1)
						}
					default:
						l.Contains(nil, k)
					}
				}
			}(w)
		}
		wg.Wait()
		count := 0
		l.Ascend(func(_, _ int) bool { count++; return true })
		net := int(insWins.Load() - delWins.Load())
		if l.Len() != count || net != count {
			t.Fatalf("round %d: Len=%d traversal=%d insWins-delWins=%d",
				round, l.Len(), count, net)
		}
	}
}
