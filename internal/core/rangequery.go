package core

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"sigtable/internal/simfun"
	"sigtable/internal/txn"
)

// RangeConstraint is one conjunct of a range query: similarity under F
// must be at least Threshold.
type RangeConstraint struct {
	F         simfun.Func
	Threshold float64
}

// RangeOptions tunes a range query's execution.
type RangeOptions struct {
	// Parallelism bounds the goroutines scanning entries. 0 selects
	// GOMAXPROCS; 1 scans on the calling goroutine. Unlike the top-k
	// search, range pruning is independent per entry, so entries are
	// simply partitioned among workers; the result is identical at every
	// setting. The constraint functions must be safe for concurrent
	// Score calls when Parallelism != 1 (every built-in is).
	Parallelism int
}

// RangeResult reports the matching transactions and the query's cost.
type RangeResult struct {
	// TIDs are the transactions satisfying every constraint, in
	// increasing TID order.
	TIDs []txn.TID
	// Scanned counts similarity evaluations; EntriesPruned counts
	// entries excluded by their optimistic bounds.
	Scanned        int
	EntriesScanned int
	EntriesPruned  int
	// PagesRead counts the simulated disk pages this query fetched
	// (disk mode only), accounted per query.
	PagesRead int64
	// Workers is the number of scan goroutines actually used.
	Workers int
	// Interrupted reports the scan stopped early because the context
	// was cancelled; TIDs then holds only the matches found so far.
	Interrupted bool
}

// minParallelLive gates the parallel range scan: below this many live
// transactions a range query is microseconds of work and goroutine
// startup would dominate, so one worker scans inline regardless of the
// requested parallelism. A variable (not a constant) so tests can
// force the parallel path onto small fixtures.
var minParallelLive = 4096

// RangeQuery finds all transactions whose similarity to the target is
// at least t_i under every function f_i (§4.3). An entry is pruned as
// soon as any constraint's optimistic bound falls below its threshold:
// no transaction inside can satisfy that conjunct. Cancelling the
// context aborts the scan between entry visits (and every
// cancelCheckInterval transactions within one), returning the matches
// found so far with Interrupted set.
func (t *Table) RangeQuery(ctx context.Context, target txn.Transaction, constraints []RangeConstraint, opt RangeOptions) (RangeResult, error) {
	if len(constraints) == 0 {
		return RangeResult{}, fmt.Errorf("core: range query needs at least one constraint")
	}
	if opt.Parallelism < 0 {
		return RangeResult{}, fmt.Errorf("core: parallelism %d must be non-negative", opt.Parallelism)
	}
	fs := make([]simfun.Func, len(constraints))
	for i, c := range constraints {
		f := c.F
		if f == nil {
			return RangeResult{}, fmt.Errorf("core: constraint %d has nil similarity function", i)
		}
		if ta, ok := f.(simfun.TargetAware); ok {
			f = ta.Bind(target)
		}
		fs[i] = f
	}

	sc := t.getScratch()
	defer t.putScratch(sc)
	overlaps := t.part.Overlaps(target, sc.overlaps)
	b := t.newBounder(overlaps)
	m := t.newMatcher(target)
	defer t.releaseMatcher(m)

	workers := opt.Parallelism
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(t.entries) {
		workers = len(t.entries)
	}
	if workers < 2 || t.live < minParallelLive || ctx.Err() != nil {
		workers = 1
	}
	return t.rangeScan(ctx, constraints, fs, b, m, workers), nil
}

// rangePrunable reports that some constraint's optimistic bound
// already falls below its threshold for this entry.
func rangePrunable(b *bounder, e *Entry, fs []simfun.Func, constraints []RangeConstraint) bool {
	bd := b.bounds(e.Coord)
	for i, f := range fs {
		if f.Score(bd.MatchOpt, bd.DistOpt) < constraints[i].Threshold {
			return true
		}
	}
	return false
}

// rangeMatchesXY reports that a transaction with the given (match,
// hamming) statistics satisfies every constraint.
func rangeMatchesXY(x, y int, fs []simfun.Func, constraints []RangeConstraint) bool {
	for i, f := range fs {
		if f.Score(x, y) < constraints[i].Threshold {
			return false
		}
	}
	return true
}

// rangeScan partitions the entries among workers via a shared atomic
// cursor; with one worker the loop runs inline on the caller's
// goroutine. Pruning decisions are independent per entry and the final
// TID list is sorted, so the result is identical at every worker count
// (cost counters are order-independent sums).
func (t *Table) rangeScan(ctx context.Context, constraints []RangeConstraint, fs []simfun.Func, b *bounder, m matcher, workers int) RangeResult {
	var (
		next        atomic.Int64
		reads       atomic.Int64
		interrupted atomic.Bool

		mu     sync.Mutex
		merged RangeResult
	)
	scan := func() {
		var local RangeResult
		for !interrupted.Load() {
			i := int(next.Add(1)) - 1
			if i >= len(t.entries) {
				break
			}
			if ctx.Err() != nil {
				interrupted.Store(true)
				break
			}
			e := t.entries[i]
			if rangePrunable(b, e, fs, constraints) {
				local.EntriesPruned++
				continue
			}
			local.EntriesScanned++
			t.scanEntryStats(e, &m, &reads, func(id txn.TID, x, y int) bool {
				local.Scanned++
				if local.Scanned%cancelCheckInterval == 0 && ctx.Err() != nil {
					interrupted.Store(true)
					return false
				}
				if rangeMatchesXY(x, y, fs, constraints) {
					local.TIDs = append(local.TIDs, id)
				}
				return true
			})
		}
		mu.Lock()
		merged.TIDs = append(merged.TIDs, local.TIDs...)
		merged.Scanned += local.Scanned
		merged.EntriesScanned += local.EntriesScanned
		merged.EntriesPruned += local.EntriesPruned
		mu.Unlock()
	}
	if workers == 1 {
		scan()
	} else {
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				scan()
			}()
		}
		wg.Wait()
	}

	sort.Slice(merged.TIDs, func(i, j int) bool { return merged.TIDs[i] < merged.TIDs[j] })
	merged.PagesRead = reads.Load()
	merged.Workers = workers
	merged.Interrupted = interrupted.Load()
	return merged
}
