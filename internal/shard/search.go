package shard

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"sigtable/internal/core"
	"sigtable/internal/signature"
	"sigtable/internal/simfun"
	"sigtable/internal/txn"
)

// Scatter-gather top-k search.
//
// Each shard worker ranks its shard's snapshot through a
// core.RankedStream — the global visiting order restricted to its
// coordinates, with keys bit-identical to every other shard's — scores
// the entries in that order speculatively, and sends one buffer per
// entry over a bounded channel: the coordinate's keys and live count,
// and its scored transactions in ascending global TID order.
//
// The coordinator never ranks. It holds one head buffer per shard; the
// next coordinate of the global order is the CompareRanked minimum
// among the heads, and the heads holding it are its owners, whose
// counts sum to the single table's entry count. It drives the serial
// branch-and-bound loop through the single table's core.Frontier and
// commits a scanned entry by K-way-merging the owners' buffers by
// ascending global TID — the single table's within-entry scan order —
// so the top-k heap sees the same (TID, value) sequence, and budget
// and cancellation cut at the same transaction. Scored entries the
// loop never commits are counted in EntriesSpeculated.
//
// What the loop leaves unvisited — the distinct coordinates a
// bound-order prune break drops, or the largest bound still queued for
// the certificate — is read once the workers have exited: the unconsumed
// heads, the buffers still queued, each worker's popped-but-undelivered
// entry and each stream's tail. So the coordinator closes the streams.
//
// Workers take no lock: each runs against the immutable snapshot the
// coordinator loaded for it, so a concurrent mutation never stalls a
// scatter, and per-shard consistency plus the shared partition
// (invariant 1) make the merge consistent.

// scatterWindow is each worker's channel depth: how many entries a
// shard may score ahead of the commit frontier. Deeper windows hide
// more merge latency but waste more work when the search prunes early.
const scatterWindow = 4

// scoredTID is one scored transaction, already mapped to its global
// TID.
type scoredTID struct {
	gid txn.TID
	val float64
}

// entryBuffer is one shard's part of one entry.
type entryBuffer struct {
	core.RankedCoord
	cands []scoredTID // ascending global TID
}

// scatter is one shard's part of one query. The worker owns stream,
// pending and ring until it exits; head, hasHead and done are the
// coordinator's.
type scatter struct {
	out        chan entryBuffer
	stream     *core.RankedStream
	pending    core.RankedCoord // popped from the stream, not delivered
	hasPending bool
	// ring holds the candidate buffers a worker cycles through: the
	// window in out, the coordinator's head and the one being filled.
	// The coordinator is done with a head before it receives the next,
	// so a buffer is never refilled while it is read.
	ring    [scatterWindow + 2][]scoredTID
	head    entryBuffer
	hasHead bool
	done    bool // out is closed and drained
}

// gather is one query's coordinator state, pooled per index so that a
// query's allocations scale with the shard count, not with the
// entries it visits.
type gather struct {
	ws              []scatter
	stop            chan struct{} // closed by halt
	stopped         atomic.Bool
	wg              sync.WaitGroup
	reads, produced atomic.Int64
	owners, idx     []int             // the current entry's owners and merge cursors
	rest            []signature.Coord // unvisited coordinates, for the distinct count
}

func (x *Index) getGather() *gather {
	g, _ := x.gathers.Get().(*gather)
	if g == nil || len(g.ws) != len(x.shards) {
		g = &gather{ws: make([]scatter, len(x.shards))}
	}
	for i := range g.ws {
		g.ws[i] = scatter{ring: g.ws[i].ring, out: make(chan entryBuffer, scatterWindow)}
	}
	g.stop = make(chan struct{})
	g.stopped.Store(false)
	g.reads.Store(0)
	g.produced.Store(0)
	return g
}

func (x *Index) putGather(g *gather) {
	g.halt()
	for i := range g.ws {
		g.ws[i].stream.Close()
		g.ws[i].stream, g.ws[i].head = nil, entryBuffer{}
	}
	x.gathers.Put(g)
}

// halt stops the workers and waits for them to exit.
func (g *gather) halt() {
	if !g.stopped.Load() {
		g.stopped.Store(true)
		close(g.stop)
		g.wg.Wait()
	}
}

// next receives a head from every shard that lacks one and returns the
// shards whose head is the next coordinate in the global visiting
// order — none once every stream is exhausted. Each stream restricts
// that order, so every shard holding the coordinate has it at its head.
func (g *gather) next() []int {
	g.owners = g.owners[:0]
	var best *entryBuffer
	for i := range g.ws {
		w := &g.ws[i]
		if !w.hasHead && !w.done {
			w.head, w.hasHead = <-w.out
			w.done = !w.hasHead
		}
		if !w.hasHead {
			continue
		}
		h := &w.head
		switch {
		case best == nil || core.CompareRanked(h.Sort, h.Tie, h.Coord, best.Sort, best.Tie, best.Coord):
			best = h
			g.owners = append(g.owners[:0], i)
		case h.Coord == best.Coord:
			g.owners = append(g.owners, i)
		}
	}
	return g.owners
}

// consumeRest halts the workers, then consumes every coordinate the
// loop has not, once per shard holding it, visiting it with its
// optimistic bound.
func (g *gather) consumeRest(fn func(c signature.Coord, opt float64)) {
	g.halt()
	for i := range g.ws {
		w := &g.ws[i]
		if w.hasHead {
			fn(w.head.Coord, w.head.Opt)
		}
		for b := range w.out {
			fn(b.Coord, b.Opt)
		}
		if w.hasPending {
			fn(w.pending.Coord, w.pending.Opt)
		}
		w.hasHead, w.hasPending = false, false
		w.stream.DrainRest(fn)
	}
}

// dropRest is the prune-break drop: it consumes the rest and counts
// its distinct coordinates, as the single table counts its entries.
// One shard's coordinates are distinct already.
func (g *gather) dropRest() int {
	g.rest = g.rest[:0]
	g.consumeRest(func(c signature.Coord, _ float64) { g.rest = append(g.rest, c) })
	if len(g.ws) > 1 {
		slices.Sort(g.rest)
	}
	return len(slices.Compact(g.rest))
}

// maxRest consumes the rest and returns its largest optimistic bound,
// or -Inf when nothing is left.
func (g *gather) maxRest() float64 {
	best := math.Inf(-1)
	g.consumeRest(func(_ signature.Coord, opt float64) { best = max(best, opt) })
	return best
}

// worker is the per-shard worker. It runs against the snapshot st —
// isolated against that version the way a single-index query runs
// against the table it loaded — and streams scored entry buffers in
// its restriction of the global visiting order until done or halted.
func (g *gather) worker(ctx context.Context, s *shard, st *shardState, w *scatter, plan *core.TargetPlan, targets []txn.Transaction, f simfun.Func, opt core.QueryOptions) {
	defer g.wg.Done()
	defer close(w.out)

	s.scans.Add(1)
	if h := scanStartHook.Load(); h != nil && *h != nil {
		(*h)(s)
	}

	// The stream exists even when the search has already stopped: the
	// coordinator consumes its tail. Single-target streams sort
	// lazily, so a worker stopped early never orders its tail.
	w.stream = st.table.NewRankedStream(plan, opt.SortBy)
	scorer := core.NewShardScorer(st.table, targets, f)
	defer scorer.Release()

	// Readahead: before scanning a coordinate, offer the pages of the
	// next depth upcoming ones to the table's prefetch pipeline.
	depth := scorer.Readahead(opt.ReadaheadDepth)
	var prefetchBuf []signature.Coord

	var cands []scoredTID
	aborted := false
	collect := func(id txn.TID, val float64) bool {
		cands = append(cands, scoredTID{gid: st.globals[id], val: val})
		aborted = len(cands)%core.CancelCheckEvery == 0 && g.stopped.Load()
		return !aborted
	}
	for n := 0; !g.stopped.Load(); n++ {
		rc, ok := w.stream.NextRanked()
		if !ok {
			return
		}
		w.pending, w.hasPending = rc, true
		if depth > 0 {
			prefetchBuf = w.stream.Upcoming(depth, prefetchBuf[:0])
			if len(prefetchBuf) > 0 {
				scorer.PrefetchCoords(ctx, prefetchBuf)
			}
		}
		slot := &w.ring[n%len(w.ring)]
		cands = (*slot)[:0]
		scorer.ScanCoord(rc.Coord, &g.reads, collect)
		*slot = cands
		if aborted {
			return
		}
		g.produced.Add(1)
		select {
		case w.out <- entryBuffer{RankedCoord: rc, cands: cands}:
			w.hasPending = false
		case <-g.stop:
			return
		}
	}
}

// searchTopK is the coordinator: it scatters workers over the shards'
// published snapshots and drives the single table's branch-and-bound
// loop decision-for-decision over the merge of their ranked streams.
func (x *Index) searchTopK(ctx context.Context, targets []txn.Transaction, f simfun.Func, opt core.QueryOptions) (core.Result, error) {
	opt, err := opt.Normalize()
	if err != nil {
		return core.Result{}, err
	}
	states := make([]*shardState, len(x.shards))
	totalLive := 0
	for i, s := range x.shards {
		states[i] = s.load()
		totalLive += states[i].table.Live()
	}
	if totalLive == 0 {
		return core.Result{Certified: true}, nil
	}

	g := x.getGather()
	defer x.putGather(g)
	plan := core.NewTargetPlan(x.part, x.r, targets, f)
	g.wg.Add(len(x.shards))
	for i, s := range x.shards {
		go g.worker(ctx, s, states[i], &g.ws[i], plan, targets, f, opt)
	}

	fr := core.NewFrontier(ctx, opt, totalLive)
	consumed := 0
	for fr.Live() {
		owners := g.next()
		if len(owners) == 0 {
			break
		}
		count := 0
		for _, si := range owners {
			count += g.ws[si].head.Count
			g.ws[si].hasHead = false
		}
		entryOpt := g.ws[owners[0]].head.Opt
		if fr.Prune(entryOpt, g.dropRest) {
			continue
		}
		fr.Enter(entryOpt, count)
		consumed += len(owners)

		// K-way merge by ascending global TID: each buffer is already
		// ascending (monotone local→global mapping), so the smallest
		// head across owners is the single table's next transaction.
		g.idx = slices.Grow(g.idx[:0], len(owners))[:len(owners)]
		clear(g.idx)
		for {
			sel := -1
			var minGid txn.TID
			for oi, si := range owners {
				if cands := g.ws[si].head.cands; g.idx[oi] < len(cands) {
					if gid := cands[g.idx[oi]].gid; sel == -1 || gid < minGid {
						sel, minGid = oi, gid
					}
				}
			}
			if sel == -1 {
				break
			}
			c := g.ws[owners[sel]].head.cands[g.idx[sel]]
			g.idx[sel]++
			if !fr.Offer(c.gid, c.val) {
				break
			}
		}
		fr.Leave()
	}
	res := fr.Finish(g.maxRest())
	res.PagesRead = g.reads.Load()
	res.Workers = len(x.shards)
	res.EntriesSpeculated = int(g.produced.Load()) - consumed
	return res, nil
}

// Query runs the branch-and-bound k-NN search for one target across
// all shards. The result — neighbors, cost counters, certificate — is
// byte-identical to a single Index over the same data; only Workers,
// PagesRead and EntriesSpeculated reflect the sharded execution.
func (x *Index) Query(ctx context.Context, target txn.Transaction, f simfun.Func, opt core.QueryOptions) (core.Result, error) {
	return x.searchTopK(ctx, []txn.Transaction{target}, f, opt)
}

// MultiQuery is the multi-target average-similarity variant, sharded.
func (x *Index) MultiQuery(ctx context.Context, targets []txn.Transaction, f simfun.Func, opt core.QueryOptions) (core.Result, error) {
	if len(targets) == 0 {
		return core.Result{}, fmt.Errorf("shard: multi-target query needs at least one target")
	}
	return x.searchTopK(ctx, targets, f, opt)
}

// Nearest is the single-nearest-neighbor shorthand, mirroring the
// single index's semantics.
func (x *Index) Nearest(ctx context.Context, target txn.Transaction, f simfun.Func) (txn.TID, float64, error) {
	res, err := x.Query(ctx, target, f, core.QueryOptions{K: 1})
	if err != nil {
		return 0, 0, err
	}
	if len(res.Neighbors) == 0 {
		if res.Interrupted {
			return 0, 0, fmt.Errorf("shard: search interrupted: %w", ctx.Err())
		}
		return 0, 0, fmt.Errorf("shard: empty index")
	}
	return res.Neighbors[0].TID, res.Neighbors[0].Value, nil
}

// Explain computes the bound landscape across all shards — the same
// rows, bounds and order a single table's Explain would produce
// (counts are summed across shards).
func (x *Index) Explain(target txn.Transaction, f simfun.Func) core.Explanation {
	counts := make(map[signature.Coord]int)
	for _, s := range x.shards {
		for _, e := range s.load().table.EntrySummaries(nil) {
			counts[e.Coord] += e.Count
		}
	}
	plan := core.NewTargetPlan(x.part, x.r, []txn.Transaction{target}, f)
	baseM, baseD := core.BoundBase(plan.Overlaps(), x.r)
	ex := core.Explanation{
		TargetCoord: plan.TargetCoord(),
		Overlaps:    plan.Overlaps(),
		BaseMatch:   baseM,
		BaseDist:    baseD,
		Entries:     make([]core.EntryBound, 0, len(counts)),
	}
	for c, n := range counts {
		bd := plan.Bounds(c)
		opt, _, _ := plan.Rank(c, core.ByOptimisticBound)
		pop := bits.OnesCount64(uint64(c))
		ex.Entries = append(ex.Entries, core.EntryBound{
			Coord:      c,
			Count:      n,
			MatchOpt:   bd.MatchOpt,
			DistOpt:    bd.DistOpt,
			Bound:      opt,
			ActiveBits: pop,
			DeltaMatch: bd.MatchOpt - baseM,
			DeltaDist:  bd.DistOpt - baseD - x.r*pop,
		})
	}
	sort.Slice(ex.Entries, func(i, j int) bool {
		if ex.Entries[i].Bound != ex.Entries[j].Bound {
			return ex.Entries[i].Bound > ex.Entries[j].Bound
		}
		return ex.Entries[i].Coord < ex.Entries[j].Coord
	})
	return ex
}
