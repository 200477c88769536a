package core

import (
	"context"
	"fmt"
	"math"

	"sigtable/internal/topk"
	"sigtable/internal/txn"
)

// Frontier is the bookkeeping of one branch-and-bound search (Figure
// 3): the top-k heap, the scan budget, the prune test against the k-th
// best value, per-transaction offers with the budget and cancellation
// checks, the bound of an entry cut short, and the optimality
// certificate. Every engine drives the same loop through it — pop the
// entry with the best optimistic bound, Prune it or Enter/scan/Leave
// it, and Finish with the bound of whatever is still queued:
//
//	for fr.Live() && queue not empty {
//		e := pop()
//		if fr.Prune(e.opt, drop) {
//			continue
//		}
//		fr.Enter(e.opt, e.count)
//		scan e's transactions through fr.Offer
//		fr.Leave()
//	}
//	res := fr.Finish(max bound still queued)
//
// The serial engine, the shared-scan batch engine (one Frontier per
// target) and the sharded coordinator differ only in where the
// entries and their transactions come from, which is why their
// results are byte-identical. A Frontier is not safe for concurrent
// use.
type Frontier struct {
	ctx     context.Context
	best    *topk.Heap
	budget  int
	byBound bool

	res         Result
	partialOpt  float64 // bound of an entry cut short by termination
	interrupted bool    // the context was found done
	exhausted   bool    // the scan budget ran out
	pruneBreak  bool    // bound order: a prune ended the search

	// The entry being scanned, between Enter and Leave.
	entryOpt   float64
	entryCount int
	inEntry    int
}

// Normalize validates the options and fills their defaults (K = 1).
func (o QueryOptions) Normalize() (QueryOptions, error) {
	if o.K == 0 {
		o.K = 1
	}
	if o.K < 0 {
		return o, fmt.Errorf("core: k=%d must be positive", o.K)
	}
	if o.MaxScanFraction < 0 || o.MaxScanFraction > 1 {
		return o, fmt.Errorf("core: scan fraction %v outside (0, 1]", o.MaxScanFraction)
	}
	return o, nil
}

// NewFrontier starts the bookkeeping for one search over live
// transactions under normalized options: MaxScanFraction becomes a
// budget of at least one transaction. A context that is already done
// leaves the frontier interrupted before the first entry.
func NewFrontier(ctx context.Context, opt QueryOptions, live int) *Frontier {
	budget := live
	if opt.MaxScanFraction != 0 {
		budget = max(int(math.Ceil(opt.MaxScanFraction*float64(live))), 1)
	}
	return &Frontier{
		ctx:         ctx,
		best:        topk.New(opt.K),
		budget:      budget,
		byBound:     opt.SortBy == ByOptimisticBound,
		partialOpt:  math.Inf(-1),
		interrupted: ctx.Err() != nil,
	}
}

// Live reports whether the search should visit another entry: it has
// not been interrupted, exhausted its budget or pruned the rest.
func (fr *Frontier) Live() bool {
	return !fr.interrupted && !fr.exhausted && !fr.pruneBreak
}

// Prunable reports whether an entry with optimistic bound opt cannot
// beat the k-th best value found so far (Lemma 2.1). The threshold
// only rises, so an entry prunable now stays prunable.
func (fr *Frontier) Prunable(opt float64) bool {
	threshold, full := fr.best.Threshold()
	return full && opt <= threshold
}

// Prune reports whether the popped entry is pruned, counting it if so.
// In bound order every entry still queued bounds no higher, so a prune
// ends the search: drop must empty the caller's queue and return how
// many entries it held, which are counted pruned too.
func (fr *Frontier) Prune(opt float64, drop func() int) bool {
	if !fr.Prunable(opt) {
		return false
	}
	fr.res.EntriesPruned++
	if fr.byBound {
		fr.res.EntriesPruned += drop()
		fr.pruneBreak = true
	}
	return true
}

// Enter starts scanning an entry with optimistic bound opt holding
// count live transactions.
func (fr *Frontier) Enter(opt float64, count int) {
	fr.res.EntriesScanned++
	fr.entryOpt, fr.entryCount, fr.inEntry = opt, count, 0
}

// Offer feeds one scanned transaction to the top-k heap. It reports
// false when the scan must stop: the budget ran out, or the context
// was found done at a cancellation checkpoint (every
// cancelCheckInterval scanned transactions).
func (fr *Frontier) Offer(id txn.TID, value float64) bool {
	fr.best.Offer(id, value)
	fr.res.Scanned++
	fr.inEntry++
	if fr.res.Scanned >= fr.budget {
		fr.exhausted = true
		return false
	}
	if fr.res.Scanned%cancelCheckInterval == 0 && fr.ctx.Err() != nil {
		fr.interrupted = true
		return false
	}
	return true
}

// Leave closes the entry Enter opened. If the scan stopped inside it,
// its unexamined transactions are still bounded by its optimistic
// bound; otherwise the context is checked before the next entry.
func (fr *Frontier) Leave() {
	if fr.exhausted || fr.interrupted {
		if fr.inEntry < fr.entryCount {
			fr.partialOpt = fr.entryOpt
		}
		return
	}
	fr.interrupted = fr.ctx.Err() != nil
}

// Finish assembles the Result. maxQueued is the largest optimistic
// bound among the entries still queued (-Inf when none are): together
// with an entry cut short it bounds everything the search did not
// resolve, which decides the certificate (§4.2) and BestPossible.
// PagesRead and Workers are left to the engine.
func (fr *Frontier) Finish(maxQueued float64) Result {
	maxRemaining := fr.partialOpt
	if maxQueued > maxRemaining {
		maxRemaining = maxQueued
	}
	res := fr.res
	res.Neighbors = fr.best.Results()
	res.Interrupted = fr.interrupted
	threshold, full := fr.best.Threshold()
	res.Certified = full && (math.IsInf(maxRemaining, -1) || maxRemaining <= threshold)
	res.BestPossible = maxRemaining
	if len(res.Neighbors) > 0 && res.Neighbors[0].Value > res.BestPossible {
		res.BestPossible = res.Neighbors[0].Value
	}
	return res
}
