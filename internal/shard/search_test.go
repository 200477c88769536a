package shard

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"

	"sigtable/internal/core"
	"sigtable/internal/simfun"
)

// errAfter is a context whose Err starts reporting Canceled at its
// n-th call. Where the Frontier is the only caller of Err, both
// engines make the same calls in the same order — once at the start,
// after every scanned entry and at every cancellation checkpoint inside
// one — so the n-th call stops both searches at the same decision.
type errAfter struct {
	context.Context
	n     int64
	calls atomic.Int64
}

func newErrAfter(n int64) *errAfter {
	return &errAfter{Context: context.Background(), n: n}
}

func (c *errAfter) Err() error {
	if c.calls.Add(1) >= c.n {
		return context.Canceled
	}
	return nil
}

// TestShardedCutShortMatchesSingle stops the search at every one of its
// cancellation checks in turn, on both engines, and requires identical
// results. A stop inside an entry leaves unconsumed work in every
// place the coordinator accounts for after its workers exit — its
// unconsumed heads, buffers queued in the channels, a worker's scored
// but undelivered entry and the streams' tails — and the certificate
// and BestPossible depend on all of them; the searches that run to
// completion end in a prune break whose EntriesPruned counts the
// distinct coordinates across shards. Six signatures put nearly every
// coordinate in every shard; eight leave many in one shard only, so a
// coordinate dropped from any one of those places changes the answer.
// The runs are in memory, or on disk with prefetch disabled, where the
// Frontier is the only caller of Err.
func TestShardedCutShortMatchesSingle(t *testing.T) {
	for _, fix := range []struct {
		disk bool
		k    int
	}{{false, 6}, {false, 8}, {true, 6}, {true, 8}} {
		for _, S := range []int{2, 3, 7} {
			opt := Options{}
			if fix.disk {
				opt = Options{PageSize: 256, PrefetchWorkers: -1}
			}
			x, single, rng := buildFixtureK(t, 4000, fix.k, S, opt)
			opts := []core.QueryOptions{
				{K: 5},
				{K: 5, SortBy: core.ByCoordSimilarity},
				{K: 10, MaxScanFraction: 0.3},
				{K: 10, MaxScanFraction: 0.3, SortBy: core.ByCoordSimilarity},
			}
			for _, qopt := range opts {
				target := randomTarget(rng, 40)
				name := fmt.Sprintf("disk=%v/k=%d/S=%d/sort=%v/frac=%v", fix.disk, fix.k, S, qopt.SortBy, qopt.MaxScanFraction)
				t.Run(name, func(t *testing.T) {
					checkpoints := 0
					for n := int64(1); ; n++ {
						want, err := single.Query(newErrAfter(n), target, simfun.Jaccard{}, qopt)
						if err != nil {
							t.Fatal(err)
						}
						got, err := x.Query(newErrAfter(n), target, simfun.Jaccard{}, qopt)
						if err != nil {
							t.Fatal(err)
						}
						if !sameResult(t, want, got) {
							t.Fatalf("stopped at Err call %d: sharded diverged from single", n)
						}
						if !want.Interrupted {
							break
						}
						if want.Scanned%core.CancelCheckEvery == 0 && want.Scanned > 0 {
							checkpoints++
						}
					}
					if checkpoints == 0 {
						t.Fatal("no run stopped at an in-entry cancellation checkpoint")
					}
				})
			}
		}
	}
}
