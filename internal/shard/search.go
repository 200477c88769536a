package shard

import (
	"context"
	"fmt"
	"math"
	"math/bits"
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
// Each shard worker loads its shard's published snapshot, snapshots
// its entries, then speculatively scores its entries in the global
// visiting order restricted to its own coordinates (the same
// comparator over the same bit-identical keys — so the restriction of
// the global order), and streams one scored buffer per entry to the
// coordinator over a bounded channel. The coordinator drives the
// serial branch-and-bound loop over the merged coordinate set through
// a core.Frontier — the same bookkeeping the single table uses: it
// pops coordinates from a heap in the exact single-table visiting
// order, applies the frontier's prune test, and commits a scanned
// entry by K-way-merging the owning shards' buffers in ascending
// global TID order — reproducing the single table's within-entry scan
// order, so the top-k heap sees the same (TID, value) sequence and
// breaks ties identically. Budget and cancellation checks run in the
// frontier's Offer against the committed Scanned count only, so early
// termination cuts at the same transaction. Speculation past the
// commit frontier is discarded and counted in EntriesSpeculated.
//
// Workers take NO lock at all: each runs against the immutable
// snapshot it loaded, so a concurrent mutation — on its own shard or
// any other — never stalls a scatter. The merged result is consistent
// because each worker's (table, globals) pair is internally
// consistent, and the coordinator's replay only requires per-shard
// consistency plus the shared partition (invariant 1).

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

// entryBuffer is one shard's scored slice of one entry, in ascending
// global TID order.
type entryBuffer struct {
	coord signature.Coord
	cands []scoredTID
}

// shardSnapshot is what the coordinator needs from each shard before
// replay can start: the occupied coordinates with live counts, and the
// live total (for the scan budget).
type shardSnapshot struct {
	entries []core.EntrySummary
	live    int
}

// mergedEntry is one distinct coordinate across all shards with its
// serial-replay state.
type mergedEntry struct {
	coord  signature.Coord
	count  int   // summed live count — equals the single table's entry Count
	owners []int // shard numbers holding this coordinate, ascending
	opt    float64
	sort   float64
	tie    float64
}

// mergedQueue is a max-heap over mergedEntry in the visiting order,
// the coordinator's counterpart of core's entry ladder.
type mergedQueue []*mergedEntry

func (q mergedQueue) before(i, j int) bool {
	return core.CompareRanked(q[i].sort, q[i].tie, q[i].coord, q[j].sort, q[j].tie, q[j].coord)
}

func (q mergedQueue) heapify() {
	for i := len(q)/2 - 1; i >= 0; i-- {
		q.siftDown(i)
	}
}

func (q mergedQueue) siftDown(i int) {
	n := len(q)
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < n && q.before(l, best) {
			best = l
		}
		if r < n && q.before(r, best) {
			best = r
		}
		if best == i {
			return
		}
		q[i], q[best] = q[best], q[i]
		i = best
	}
}

func (q *mergedQueue) popMax() *mergedEntry {
	old := *q
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	*q = old[:n]
	(*q).siftDown(0)
	return top
}

// drop empties the queue, returning how many entries it held — the
// prune-break accounting.
func (q *mergedQueue) drop() int {
	n := len(*q)
	*q = (*q)[:0]
	return n
}

// maxOpt returns the largest optimistic bound still queued, or -Inf
// when the queue is empty. In bound order the heap root dominates.
func (q mergedQueue) maxOpt(by core.SortCriterion) float64 {
	if len(q) > 0 && by == core.ByOptimisticBound {
		return q[0].opt
	}
	best := math.Inf(-1)
	for _, u := range q {
		if u.opt > best {
			best = u.opt
		}
	}
	return best
}

// scatterTopK is the per-shard worker. It loads the shard's current
// snapshot once — its whole run is isolated against that version, the
// way a single-index query runs against the table it loaded — then
// streams scored entry buffers in its restriction of the global
// visiting order until done or stopped.
func (x *Index) scatterTopK(ctx context.Context, s *shard, targets []txn.Transaction, f simfun.Func, by core.SortCriterion,
	readahead int, snap chan<- shardSnapshot, out chan<- entryBuffer, stop <-chan struct{}, stopped *atomic.Bool,
	reads, produced *atomic.Int64, wg *sync.WaitGroup) {
	defer wg.Done()
	defer close(out)

	st := s.load()
	s.scans.Add(1)
	if h := scanStartHook.Load(); h != nil && *h != nil {
		(*h)(s)
	}

	t := st.table
	ents := t.EntrySummaries(nil)
	snap <- shardSnapshot{entries: ents, live: t.Live()}
	if len(ents) == 0 {
		return
	}

	// Rank own coordinates with the shared plan through the table's
	// ranked stream: bit-identical keys + the shared comparator ⇒ the
	// stream order is the global visiting order restricted to this
	// shard's coordinates. Single-target queries go through the
	// directory's bit-sliced kernel and sort lazily — a worker stopped
	// early never pays for ordering its tail.
	plan := core.NewTargetPlan(x.part, x.r, targets, f)
	stream := t.NewRankedStream(plan, by)
	defer stream.Close()

	scorer := core.NewShardScorer(t, targets, f)
	defer scorer.Release()
	globals := st.globals

	// Readahead over this worker's restriction of the visiting order:
	// before scanning a coordinate, offer the next depth upcoming
	// coordinates' pages to the table's prefetch pipeline. The stream
	// reports each coordinate at most once.
	depth := scorer.Readahead(readahead)
	var prefetchBuf []signature.Coord

	for {
		if stopped.Load() {
			return
		}
		coord, ok := stream.Next()
		if !ok {
			return
		}
		if depth > 0 {
			prefetchBuf = stream.Upcoming(depth, prefetchBuf[:0])
			if len(prefetchBuf) > 0 {
				scorer.PrefetchCoords(ctx, prefetchBuf)
			}
		}
		var cands []scoredTID
		aborted := false
		scorer.ScanCoord(coord, reads, func(id txn.TID, val float64) bool {
			cands = append(cands, scoredTID{gid: globals[id], val: val})
			if len(cands)%core.CancelCheckEvery == 0 && stopped.Load() {
				aborted = true
				return false
			}
			return true
		})
		if aborted {
			return
		}
		produced.Add(1)
		select {
		case out <- entryBuffer{coord: coord, cands: cands}:
		case <-stop:
			return
		}
	}
}

// searchTopK is the coordinator: it scatters workers, merges their
// snapshots, and drives the single table's branch-and-bound loop
// decision-for-decision over the merged coordinates.
func (x *Index) searchTopK(ctx context.Context, targets []txn.Transaction, f simfun.Func, opt core.QueryOptions) (core.Result, error) {
	opt, err := opt.Normalize()
	if err != nil {
		return core.Result{}, err
	}

	S := len(x.shards)
	stop := make(chan struct{})
	var stopped atomic.Bool
	var stopOnce sync.Once
	halt := func() {
		stopOnce.Do(func() {
			stopped.Store(true)
			close(stop)
		})
	}
	var reads, produced atomic.Int64
	var wg sync.WaitGroup
	snaps := make([]chan shardSnapshot, S)
	outs := make([]chan entryBuffer, S)
	for i, s := range x.shards {
		snaps[i] = make(chan shardSnapshot, 1)
		outs[i] = make(chan entryBuffer, scatterWindow)
		wg.Add(1)
		go x.scatterTopK(ctx, s, targets, f, opt.SortBy, opt.ReadaheadDepth, snaps[i], outs[i], stop, &stopped, &reads, &produced, &wg)
	}

	// Merge snapshots into the distinct-coordinate set. Owners collect
	// in ascending shard order; counts sum to the single table's entry
	// counts.
	union := make(map[signature.Coord]*mergedEntry)
	totalLive := 0
	for si := 0; si < S; si++ {
		sn := <-snaps[si]
		totalLive += sn.live
		for _, e := range sn.entries {
			u := union[e.Coord]
			if u == nil {
				u = &mergedEntry{coord: e.Coord}
				union[e.Coord] = u
			}
			u.count += e.Count
			u.owners = append(u.owners, si)
		}
	}
	if totalLive == 0 {
		halt()
		wg.Wait()
		return core.Result{Certified: true}, nil
	}
	plan := core.NewTargetPlan(x.part, x.r, targets, f)
	q := make(mergedQueue, 0, len(union))
	for _, u := range union {
		u.opt, u.sort, u.tie = plan.Rank(u.coord, opt.SortBy)
		q = append(q, u)
	}
	q.heapify()

	// fetch receives the next buffer from each owning shard. Streams
	// stay aligned because the coordinator consumes every coordinate it
	// pops — scanned or (in similarity order) pruned — and each shard
	// produces in the same restricted order the coordinator pops in.
	fetch := func(u *mergedEntry) []entryBuffer {
		bufs := make([]entryBuffer, len(u.owners))
		for i, si := range u.owners {
			b, ok := <-outs[si]
			if !ok || b.coord != u.coord {
				panic(fmt.Sprintf("shard: scatter stream misaligned (shard %d, want %#x)", si, u.coord))
			}
			bufs[i] = b
		}
		return bufs
	}

	// The serial replay: the single table's loop, over merged entries.
	fr := core.NewFrontier(ctx, opt, totalLive)
	consumed := 0
	for fr.Live() && len(q) > 0 {
		u := q.popMax()
		if fr.Prune(u.opt, q.drop) {
			if fr.Live() {
				fetch(u) // discard, keeping the per-shard streams aligned
			}
			continue
		}
		fr.Enter(u.opt, u.count)
		bufs := fetch(u)
		consumed += len(bufs)

		// K-way merge by ascending global TID: each buffer is already
		// ascending (monotone local→global mapping), so the smallest
		// head across owners is the single table's next transaction.
		idx := make([]int, len(bufs))
		for {
			sel := -1
			var minGid txn.TID
			for bi := range bufs {
				if idx[bi] >= len(bufs[bi].cands) {
					continue
				}
				if g := bufs[bi].cands[idx[bi]].gid; sel == -1 || g < minGid {
					sel, minGid = bi, g
				}
			}
			if sel == -1 {
				break
			}
			c := bufs[sel].cands[idx[sel]]
			idx[sel]++
			if !fr.Offer(c.gid, c.val) {
				break
			}
		}
		fr.Leave()
	}
	res := fr.Finish(q.maxOpt(opt.SortBy))

	halt()
	wg.Wait()
	res.PagesRead = reads.Load()
	res.Workers = S
	res.EntriesSpeculated = int(produced.Load()) - consumed
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
