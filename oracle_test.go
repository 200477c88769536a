package sigtable

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
)

// TestEnginesMatchOracle checks the branch-and-bound loop against an
// independent oracle rather than against another engine: every engine
// shares the loop's bookkeeping (core.Frontier), so engine-vs-engine
// identity cannot catch a bound that breaks Lemma 2.1. A random
// insert/delete script runs on a single Index and a 2-shard
// ShardedIndex; then the serial Query, the shared-scan BatchQuery and
// the sharded Query answer random targets in memory, v1 and v2 page
// formats and both visiting orders. Exact answers must equal ScanKNearest
// over the live transactions rank by rank, certified. Budgeted answers
// may never beat the oracle at any rank, and one marked Certified must
// equal it.
func TestEnginesMatchOracle(t *testing.T) {
	ctx := context.Background()
	formats := []struct {
		name string
		opt  IndexOptions
	}{
		{"memory", IndexOptions{}},
		{"v1", IndexOptions{PageSize: 256, PageFormat: PageFormatV1, FlushThreshold: 8}},
		{"v2", IndexOptions{PageSize: 256, PageFormat: PageFormatV2, FlushThreshold: 8}},
	}
	for fi, format := range formats {
		for seed := int64(0); seed < 3; seed++ {
			rng := rand.New(rand.NewSource(seed*7 + int64(fi)))
			opt := format.opt
			opt.SignatureCardinality = 8 + rng.Intn(5)
			data := testDataset(t, 600, seed)
			single, err := BuildIndex(data, opt)
			if err != nil {
				t.Fatal(err)
			}
			opt.Shards = 2
			sharded, err := NewSharded(testDataset(t, 600, seed), opt)
			if err != nil {
				t.Fatal(err)
			}

			live := map[TID]Transaction{}
			for i := 0; i < data.Len(); i++ {
				live[TID(i)] = data.Get(TID(i))
			}
			for op := 0; op < 150; op++ {
				if rng.Intn(3) == 0 {
					id := TID(rng.Intn(single.Len()))
					_, want := live[id]
					if a, b := single.Delete(id), sharded.Delete(id); a != want || b != want {
						t.Fatalf("delete %d: single %v sharded %v, want %v", id, a, b, want)
					}
					delete(live, id)
					continue
				}
				tr := single.Items(TID(rng.Intn(single.Len())))
				if rng.Intn(2) == 0 {
					tr = NewTransaction(Item(rng.Intn(200)), Item(rng.Intn(200)), Item(rng.Intn(200)))
				}
				a, b := single.Insert(tr), sharded.Insert(tr)
				if a != b {
					t.Fatalf("insert TIDs diverge: single %d, sharded %d", a, b)
				}
				live[a] = tr
			}
			alive := NewDataset(200)
			for id := TID(0); int(id) < single.Len(); id++ {
				if tr, ok := live[id]; ok {
					alive.Append(tr)
				}
			}

			targets := make([]Transaction, 4)
			for i := range targets {
				targets[i] = single.Items(TID(rng.Intn(single.Len())))
			}
			targets[3] = NewTransaction(Item(rng.Intn(200)), Item(rng.Intn(200)))
			for _, f := range []SimilarityFunc{Cosine{}, Jaccard{}, HammingSimilarity{}, MatchHammingRatio{}, Dice{}} {
				for _, by := range []SortCriterion{ByOptimisticBound, ByCoordSimilarity} {
					for _, frac := range []float64{0, 0.05} {
						sopt := SearchOptions{K: 1 + rng.Intn(6), SortBy: by, MaxScanFraction: frac}
						batch, err := single.BatchQuery(ctx, targets, f, SearchOptions{
							K: sopt.K, SortBy: by, MaxScanFraction: frac, SharedScan: true,
						})
						if err != nil {
							t.Fatal(err)
						}
						for ti, target := range targets {
							want := ScanKNearest(alive, target, f, sopt.K)
							serial, err := single.Query(ctx, target, f, sopt)
							if err != nil {
								t.Fatal(err)
							}
							shardRes, err := sharded.Query(ctx, target, f, sopt)
							if err != nil {
								t.Fatal(err)
							}
							for _, r := range []struct {
								engine string
								res    Result
							}{{"serial", serial}, {"batch", batch[ti]}, {"sharded", shardRes}} {
								label := fmt.Sprintf("%s seed %d %s %s by %v frac %v target %d",
									format.name, seed, r.engine, f.Name(), by, frac, ti)
								checkAgainstOracle(t, label, r.res, want, frac == 0)
							}
						}
					}
				}
			}
			if err := single.Close(); err != nil {
				t.Fatal(err)
			}
			if err := sharded.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// checkAgainstOracle asserts the oracle contract for one answer: an
// exact search equals the oracle rank by rank and is certified; a
// budgeted one never beats it at any rank, and equals it whenever it
// claims the certificate. Values are compared, not TIDs: ties may
// legitimately resolve to different transactions.
func checkAgainstOracle(t *testing.T, label string, res Result, want []Candidate, exact bool) {
	t.Helper()
	if exact && !res.Certified {
		t.Fatalf("%s: exact search not certified", label)
	}
	if len(res.Neighbors) > len(want) || (res.Certified && len(res.Neighbors) != len(want)) {
		t.Fatalf("%s: %d neighbors, oracle has %d (certified %v)", label, len(res.Neighbors), len(want), res.Certified)
	}
	for i, nb := range res.Neighbors {
		if nb.Value > want[i].Value {
			t.Fatalf("%s: rank %d value %v beats the oracle's %v", label, i, nb.Value, want[i].Value)
		}
		if res.Certified && nb.Value != want[i].Value {
			t.Fatalf("%s: certified rank %d value %v, oracle %v", label, i, nb.Value, want[i].Value)
		}
	}
}

// raceEnabled reports a -race build (set in race_test.go).
var raceEnabled bool

// TestQueryAllocsPinned pins the serial engine's allocation count: a
// k=1 in-memory Query on the micro-benchmark fixture visits hundreds of
// entries, but its scan callback is built once per search, so the
// whole query allocates a small constant — the result, the top-k heap,
// the search's closures — and nothing per entry.
func TestQueryAllocsPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector randomly drops sync.Pool items, so pooled scratch reallocates")
	}
	if testing.Short() {
		t.Skip("builds the 50k-transaction micro fixture")
	}
	m := microSetup(t)
	ctx := context.Background()
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := m.idx.Query(ctx, m.queries[i%len(m.queries)], Cosine{}, QueryOptions{K: 1}); err != nil {
			t.Fatal(err)
		}
		i++
	})
	t.Logf("%v allocations per query", allocs)
	if allocs > 10 {
		t.Fatalf("k=1 in-memory Query allocates %v times per query, want <= 10", allocs)
	}
}

// TestShardedQueryAllocsPinned pins the sharded coordinator the same
// way: a k=1 in-memory ShardedIndex.Query on the micro fixture merges
// hundreds of entries from the shards' ranked streams through pooled
// per-query scratch and reused per-entry buffers, so its allocations
// scale with the shard count — per-shard workers, channels, streams
// and scorers — and not with the entries it visits.
func TestShardedQueryAllocsPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector randomly drops sync.Pool items, so pooled scratch reallocates")
	}
	if testing.Short() {
		t.Skip("builds the 50k-transaction micro fixture")
	}
	m := microSetup(t)
	ctx := context.Background()
	for _, S := range []int{1, 4} {
		sx := shardedSetup(t, fmt.Sprintf("%dshards", S), S, false)
		i := 0
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := sx.Query(ctx, m.queries[i%len(m.queries)], Cosine{}, SearchOptions{K: 1}); err != nil {
				t.Fatal(err)
			}
			i++
		})
		limit := float64(100 + 25*S)
		t.Logf("S=%d: %v allocations per query", S, allocs)
		if allocs > limit {
			t.Fatalf("S=%d: k=1 in-memory sharded Query allocates %v times per query, want <= %v", S, allocs, limit)
		}
	}
}
