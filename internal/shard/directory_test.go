package shard

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"sigtable/internal/core"
	"sigtable/internal/signature"
	"sigtable/internal/simfun"
	"sigtable/internal/topk"
	"sigtable/internal/txn"
)

// referenceSearch is the paper's loop written out plainly over the
// reference visiting order: every distinct coordinate across the
// shards, ranked with the scalar TargetPlan.Rank keys and sorted by
// CompareRanked. Each visited coordinate's transactions are scored per
// shard by ShardScorer and offered in ascending global TID order — the
// single table's scan order.
func referenceSearch(x *Index, targets []txn.Transaction, f simfun.Func, opt core.QueryOptions) core.Result {
	type entry struct {
		coord          signature.Coord
		count          int
		opt, sort, tie float64
	}
	type scored struct {
		gid txn.TID
		val float64
	}
	counts := map[signature.Coord]int{}
	live := 0
	states := make([]*shardState, len(x.shards))
	scorers := make([]*core.ShardScorer, len(x.shards))
	for i, s := range x.shards {
		states[i] = s.load()
		live += states[i].table.Live()
		for _, e := range states[i].table.EntrySummaries(nil) {
			counts[e.Coord] += e.Count
		}
		scorers[i] = core.NewShardScorer(states[i].table, targets, f)
		defer scorers[i].Release()
	}
	plan := core.NewTargetPlan(x.part, x.r, targets, f)
	var order []entry
	for c, n := range counts {
		e := entry{coord: c, count: n}
		e.opt, e.sort, e.tie = plan.Rank(c, opt.SortBy)
		order = append(order, e)
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		return core.CompareRanked(a.sort, a.tie, a.coord, b.sort, b.tie, b.coord)
	})
	budget := live
	if opt.MaxScanFraction != 0 {
		budget = max(int(math.Ceil(opt.MaxScanFraction*float64(live))), 1)
	}

	best := topk.New(max(opt.K, 1))
	var res core.Result
	unresolved := math.Inf(-1)
	for i, e := range order {
		if th, full := best.Threshold(); full && e.opt <= th {
			res.EntriesPruned++
			if opt.SortBy == core.ByOptimisticBound {
				res.EntriesPruned += len(order) - i - 1
				break
			}
			continue
		}
		res.EntriesScanned++
		var cands []scored
		for si, st := range states {
			scorers[si].ScanCoord(e.coord, nil, func(id txn.TID, v float64) bool {
				cands = append(cands, scored{st.globals[id], v})
				return true
			})
		}
		sort.Slice(cands, func(a, b int) bool { return cands[a].gid < cands[b].gid })
		seen := 0
		for _, c := range cands {
			best.Offer(c.gid, c.val)
			res.Scanned++
			seen++
			if res.Scanned >= budget {
				break
			}
		}
		if res.Scanned >= budget {
			if seen < e.count {
				unresolved = e.opt
			}
			for _, rest := range order[i+1:] {
				if rest.opt > unresolved {
					unresolved = rest.opt
				}
			}
			break
		}
	}
	res.Neighbors = best.Results()
	th, full := best.Threshold()
	res.Certified = full && (math.IsInf(unresolved, -1) || unresolved <= th)
	res.BestPossible = unresolved
	if len(res.Neighbors) > 0 && res.Neighbors[0].Value > res.BestPossible {
		res.BestPossible = res.Neighbors[0].Value
	}
	return res
}

// TestShardedRankerIdentity runs sharded queries against
// referenceSearch, asserting the deterministic Result fields match
// exactly. The per-shard worker streams entries through
// core.RankedStream, so this pins the whole scatter path — ranking,
// prefetch lookahead and the merged-queue alignment — to the reference
// visiting order.
func TestShardedRankerIdentity(t *testing.T) {
	ctx := context.Background()

	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		universe := 25 + rng.Intn(25)
		d := randomDataset(rng, 200+rng.Intn(200), universe)
		part := randomPartition(t, rng, universe, 4+rng.Intn(6))
		f := simfun.Jaccard{}
		target := randomTarget(rng, universe)
		targets := []txn.Transaction{target, randomTarget(rng, universe), randomTarget(rng, universe)}

		for _, shards := range []int{1, 3} {
			for _, pageSize := range []int{0, 128} {
				x, err := New(d, part, Options{Shards: shards, PageSize: pageSize})
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 20; i++ {
					x.Insert(randomTarget(rng, universe))
				}
				x.Delete(txn.TID(rng.Intn(d.Len())))

				for _, by := range []core.SortCriterion{core.ByOptimisticBound, core.ByCoordSimilarity} {
					for _, frac := range []float64{0, 0.1} {
						opt := core.QueryOptions{K: 1 + rng.Intn(5), SortBy: by, MaxScanFraction: frac}
						label := fmt.Sprintf("seed %d shards %d page %d by %v frac %v", seed, shards, pageSize, by, frac)
						q, err := x.Query(ctx, target, f, opt)
						if err != nil {
							t.Fatal(err)
						}
						if !sameResult(t, referenceSearch(x, targets[:1], f, opt), q) {
							t.Fatalf("%s: Query diverged from the reference", label)
						}
						m, err := x.MultiQuery(ctx, targets, f, opt)
						if err != nil {
							t.Fatal(err)
						}
						if !sameResult(t, referenceSearch(x, targets, f, opt), m) {
							t.Fatalf("%s: MultiQuery diverged from the reference", label)
						}
						b, err := x.BatchQuery(ctx, targets, f, opt, 2)
						if err != nil {
							t.Fatal(err)
						}
						for i := range b {
							if !sameResult(t, referenceSearch(x, targets[i:i+1], f, opt), b[i]) {
								t.Fatalf("%s: BatchQuery[%d] diverged from the reference", label, i)
							}
						}
					}
				}
				if err := x.Close(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// TestShardedDirectoryStats pins the aggregated directory surface.
func TestShardedDirectoryStats(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	universe := 30
	d := randomDataset(rng, 300, universe)
	part := randomPartition(t, rng, universe, 6)
	x, err := New(d, part, Options{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()

	// Slots sum per-shard entry counts; a coordinate occupied in
	// several shards owns a slot in each, so the sum is at least the
	// global distinct count.
	st := x.DirectoryStats()
	if st.Slots < x.NumEntries() {
		t.Fatalf("Slots = %d, want >= %d", st.Slots, x.NumEntries())
	}
	if st.Bytes <= 0 {
		t.Fatalf("Bytes = %d, want > 0", st.Bytes)
	}
	before := st.Ranks
	if _, err := x.Query(context.Background(), randomTarget(rng, universe), simfun.Cosine{}, core.QueryOptions{K: 3}); err != nil {
		t.Fatal(err)
	}
	if after := x.DirectoryStats().Ranks; after <= before {
		t.Fatalf("Ranks did not advance: %d -> %d", before, after)
	}
}
