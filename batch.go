package sigtable

import (
	"context"
	"fmt"
	"runtime"
	"sync"
)

// BatchQuery answers one k-NN query per target, in target order.
//
// The context is shared by every query in the batch, but honored per
// target: when it is cancelled or its deadline expires, targets not
// yet started return immediately with Result.Interrupted set and zero
// cost, in-flight targets stop at their next checkpoint with partial
// results, and already-finished targets keep their complete answers.
// A cancelled batch is not an error — every slot is filled; errors are
// reserved for invalid options and abort the batch.
//
// One SearchOptions parameterizes the whole batch: K, MaxScanFraction
// and SortBy apply to every slot, Parallelism is the batch's worker
// knob and SharedScan selects the engine. By default each slot is an
// independent Query over a pool of Parallelism workers (0 selects
// GOMAXPROCS), each query running its serial loop. With SharedScan the
// whole batch runs as
// ONE scan over the signature table: entries are visited in the order
// of the best optimistic bound across the batch's still-live targets,
// each entry's transactions are decoded once and consumed by every
// target that needs them, and targets retire individually as their
// optimality certificates close. Results are byte-identical either
// way; only the I/O differs — a hot entry's pages are read once per
// batch instead of once per target (see DESIGN.md §4d). Either mode
// runs against the snapshot current when the batch starts:
// Insert/Delete from other goroutines proceed concurrently and are
// observed by queries started after they return, never mid-batch.
//
// The trailing argument keeps pre-SearchOptions call sites compiling:
// BatchQuery(ctx, targets, f, queryOpts, batchOpts) splits the knobs
// exactly as the old (QueryOptions, BatchOptions) pair did — SharedScan
// and the pool width from batchOpts, the per-query fields from
// queryOpts.
//
// Deprecated: the two-options form. Pass a single SearchOptions.
func (ix *Index) BatchQuery(ctx context.Context, targets []Transaction, f SimilarityFunc, opt SearchOptions, legacy ...BatchOptions) ([]Result, error) {
	shared, qopt, pool := batchPlan(opt, legacy)
	if len(targets) == 0 {
		return nil, nil
	}
	if shared {
		return ix.load().QueryBatch(ctx, targets, f, qopt.query(), pool)
	}

	parallelism := pool
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	if parallelism > len(targets) {
		parallelism = len(targets)
	}

	results := make([]Result, len(targets))
	errs := make([]error, len(targets))
	var wg sync.WaitGroup
	work := make(chan int)

	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				// A dead context means this target's search would do
				// zero work anyway; skip the per-query setup (entry
				// ranking is O(entries)) and fill the slot directly.
				if ctx.Err() != nil {
					results[i] = Result{Interrupted: true, Workers: 1}
					continue
				}
				results[i], errs[i] = ix.Query(ctx, targets[i], f, qopt)
			}
		}()
	}
	for i := range targets {
		work <- i
	}
	close(work)
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("sigtable: batch query %d: %w", i, err)
		}
	}
	return results, nil
}

// batchPlan resolves the unified and legacy calling conventions into
// (shared engine?, per-query options, batch pool width). In the
// unified form Parallelism is the batch knob; in the legacy form the
// two structs keep their historical roles.
func batchPlan(opt SearchOptions, legacy []BatchOptions) (bool, SearchOptions, int) {
	if len(legacy) > 0 {
		b := legacy[0]
		return opt.SharedScan || b.SharedScan, opt, b.Parallelism
	}
	return opt.SharedScan, opt, opt.Parallelism
}
