package core

import (
	"context"
	"fmt"
	"sync/atomic"

	"sigtable/internal/signature"
	"sigtable/internal/simfun"
	"sigtable/internal/topk"
	"sigtable/internal/txn"
)

// cancelCheckInterval is how many transaction scans may elapse between
// context-cancellation checks inside a single entry. Checking per
// transaction would put an atomic load on the innermost loop; every 256
// keeps the overhead unmeasurable while still aborting a large entry
// scan within microseconds of a deadline.
const cancelCheckInterval = 256

// SortCriterion selects the order in which signature table entries are
// visited (paper §4 discusses both).
type SortCriterion int

const (
	// ByOptimisticBound visits entries in decreasing optimistic-bound
	// order — the paper's default. With this order the search can stop
	// at the first prunable entry, since all later entries bound lower.
	ByOptimisticBound SortCriterion = iota
	// ByCoordSimilarity orders entries by the similarity function
	// applied to the supercoordinates themselves, the alternative the
	// paper suggests as a better proxy for average-case similarity.
	// Optimistic bounds still drive pruning.
	ByCoordSimilarity
)

// QueryOptions tunes a branch-and-bound search.
type QueryOptions struct {
	// K is the number of neighbors to return (default 1).
	K int
	// MaxScanFraction, in (0, 1], enables early termination after
	// examining that fraction of the database's transactions (§4.2).
	// Zero runs to completion.
	MaxScanFraction float64
	// SortBy selects the entry visiting order.
	SortBy SortCriterion
	// ReadaheadDepth controls how many upcoming ranked entries the
	// search offers to the store's prefetch pipeline (disk mode with a
	// prefetcher attached; ignored otherwise). 0 uses the pipeline's
	// adaptive depth, a negative value disables prefetch for this
	// query, a positive value fixes the depth. Results are identical
	// at every setting — prefetch only warms the buffer pool.
	ReadaheadDepth int
}

// Result reports a query's answer and its cost.
type Result struct {
	// Neighbors are the best candidates found, sorted by decreasing
	// similarity.
	Neighbors []topk.Candidate
	// Scanned is the number of transactions whose similarity was
	// evaluated.
	Scanned int
	// EntriesScanned and EntriesPruned partition the occupied entries
	// that were resolved; entries skipped by early termination are in
	// neither count.
	EntriesScanned int
	EntriesPruned  int
	// PagesRead counts the simulated disk pages this query fetched
	// (disk mode only). It is accounted per query, so it stays accurate
	// when queries run concurrently.
	PagesRead int64
	// Workers is the number of goroutines the search used: 1 for a
	// single-table search, the scoring fan-out for a shared-scan batch,
	// the shard count for a sharded one.
	Workers int
	// EntriesSpeculated counts entries a sharded search's workers
	// scored ahead of the coordinator whose work was then discarded
	// because the search resolved first (budget exhausted, prune break,
	// or cancellation). Always 0 for a single-table search.
	EntriesSpeculated int
	// Certified reports that the result is provably exact: every
	// unexplored entry's optimistic bound is at most the k-th best
	// value found (§4.2's quality guarantee). Always true when the
	// search ran to completion.
	Certified bool
	// Interrupted reports that the search stopped early because the
	// query's context was cancelled or its deadline expired. The
	// neighbors found so far are still returned, but the result is not
	// Certified unless the certificate already held when the
	// cancellation landed.
	Interrupted bool
	// BestPossible is an upper bound on the value of any transaction in
	// the database (max of the achieved value and all unexplored
	// optimistic bounds); with early termination it quantifies how far
	// from optimal the answer can be.
	BestPossible float64
}

// PruningEfficiency is the paper's headline metric: the percentage of
// the database not examined, when the query ran to completion.
func (r Result) PruningEfficiency(n int) float64 {
	if n == 0 {
		return 0
	}
	return 100 * (1 - float64(r.Scanned)/float64(n))
}

// rankedEntry is an entry with its query-time ordering and pruning
// keys.
type rankedEntry struct {
	e    *Entry
	idx  int     // position in t.entries; keys the batch engine's per-entry state
	opt  float64 // optimistic bound, always used for pruning
	sort float64 // ordering key (== opt for ByOptimisticBound)
	tie  float64 // supercoordinate similarity, breaks sort-key ties
}

// rankedBefore is the visiting order: decreasing sort key, ties broken
// by decreasing supercoordinate similarity, then coordinate. Shared by
// the ladder's bucket sorts and the batch engine's cross-target entry
// picking. Optimistic bounds tie in droves (hamming yields few distinct
// D_opt values, and every superset of the target's coordinate bounds
// at distance 0). Among ties, visit the entry whose activation pattern
// most resembles the target's first: its transactions are the
// likeliest close matches, which raises the pessimistic bound early
// and drives both pruning and early-termination accuracy. The actual
// comparison lives in CompareRanked (shardapi.go) so the sharded
// coordinator replays the identical order.
func rankedBefore(a, b rankedEntry) bool {
	return CompareRanked(a.sort, a.tie, a.e.Coord, b.sort, b.tie, b.e.Coord)
}

// searchSerial is the branch-and-bound loop of Figure 3 over a ranked
// entry ladder: pop the most promising entry, prune it if its
// optimistic bound cannot beat the k-th best found, otherwise scan its
// transactions into the frontier. scan must feed every live
// transaction of the entry to offer and stop when offer returns false;
// Query and MultiQuery build offer and scan once per search, so the
// loop allocates nothing per entry. prefetch, when non-nil, offers the
// next few upcoming entries' pages to the store's prefetch pipeline
// right before an entry is scanned. Cancellation is checked between
// entries and every cancelCheckInterval transactions within one, so a
// deadline aborts mid-scan with whatever was found so far.
func searchSerial(fr *Frontier, src *entryLadder, prefetch func(*entryLadder), scan func(e *Entry, reads *atomic.Int64)) Result {
	var reads atomic.Int64
	for fr.Live() && src.Len() > 0 {
		re := src.Pop()
		if fr.Prune(re.opt, src.Drop) {
			continue
		}
		if prefetch != nil {
			prefetch(src)
		}
		fr.Enter(re.opt, re.e.Count)
		scan(re.e, &reads)
		fr.Leave()
	}
	res := fr.Finish(src.MaxRemainingOpt())
	res.PagesRead = reads.Load()
	res.Workers = 1
	return res
}

// Query runs the branch-and-bound similarity search of Figure 3 for a
// target transaction under similarity function f.
//
// The context bounds the search: cancellation or a deadline aborts the
// scan between entry visits (and every cancelCheckInterval transactions
// within one) and returns the partial result found so far with
// Interrupted set and, in general, Certified false. An error is
// reserved for invalid inputs; a cancelled search is not an error.
func (t *Table) Query(ctx context.Context, target txn.Transaction, f simfun.Func, opt QueryOptions) (Result, error) {
	opt, err := opt.Normalize()
	if err != nil {
		return Result{}, err
	}
	if t.live == 0 {
		return Result{Certified: true}, nil
	}
	if ta, ok := f.(simfun.TargetAware); ok {
		f = ta.Bind(target)
	}

	sc := t.getScratch()
	defer t.putScratch(sc)
	overlaps := t.part.Overlaps(target, sc.overlaps)
	targetCoord := signature.CoordOfOverlaps(overlaps, t.r)
	src := t.rankSource(sc, f, overlaps, targetCoord, opt.SortBy)

	m := t.newMatcher(target)
	defer t.releaseMatcher(m)
	fr := NewFrontier(ctx, opt, t.live)
	offer := func(id txn.TID, x, y int) bool {
		return fr.Offer(id, f.Score(x, y))
	}
	scan := func(e *Entry, reads *atomic.Int64) {
		t.scanEntryStats(e, &m, reads, offer)
	}
	return searchSerial(fr, src, t.prefetchHook(ctx, opt.ReadaheadDepth), scan), nil
}

// Nearest is shorthand for a run-to-completion single-nearest-neighbor
// query. Unlike Query, a search interrupted before finding any
// candidate reports the context's error.
func (t *Table) Nearest(ctx context.Context, target txn.Transaction, f simfun.Func) (txn.TID, float64, error) {
	res, err := t.Query(ctx, target, f, QueryOptions{K: 1})
	if err != nil {
		return 0, 0, err
	}
	if len(res.Neighbors) == 0 {
		if res.Interrupted {
			return 0, 0, fmt.Errorf("core: search interrupted: %w", ctx.Err())
		}
		return 0, 0, fmt.Errorf("core: empty table")
	}
	return res.Neighbors[0].TID, res.Neighbors[0].Value, nil
}
