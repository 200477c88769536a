package core

import (
	"context"
	"fmt"
	"sync/atomic"

	"sigtable/internal/signature"
	"sigtable/internal/simfun"
	"sigtable/internal/txn"
)

// MultiQuery runs the multi-target variant of §4.3: find the k
// transactions maximizing the *average* similarity to a set of targets
// under f. The optimistic bound of an entry is the average of its
// per-target optimistic bounds, which upper-bounds the average
// similarity of every indexed transaction, so branch-and-bound pruning
// carries over unchanged. The context bounds the search exactly as in
// Query.
func (t *Table) MultiQuery(ctx context.Context, targets []txn.Transaction, f simfun.Func, opt QueryOptions) (Result, error) {
	if len(targets) == 0 {
		return Result{}, fmt.Errorf("core: multi-target query needs at least one target")
	}
	opt, err := opt.Normalize()
	if err != nil {
		return Result{}, err
	}
	if t.live == 0 {
		return Result{Certified: true}, nil
	}

	// Bind per target, precompute per-target overlaps and coordinates.
	fs := make([]simfun.Func, len(targets))
	bounders := make([]*bounder, len(targets))
	coords := make([]signature.Coord, len(targets))
	for i, tgt := range targets {
		fi := f
		if ta, ok := f.(simfun.TargetAware); ok {
			fi = ta.Bind(tgt)
		}
		fs[i] = fi
		bounders[i] = t.newBounder(t.part.Overlaps(tgt, nil))
		coords[i] = t.part.Coord(tgt, t.r)
	}
	invN := 1 / float64(len(targets))

	// One scoring kernel per target; each holds a pooled membership
	// bitmap when the universe permits.
	matchers := make([]matcher, len(targets))
	for i, tgt := range targets {
		matchers[i] = t.newMatcher(tgt)
	}
	defer func() {
		for _, m := range matchers {
			t.releaseMatcher(m)
		}
	}()

	sc := t.getScratch()
	defer t.putScratch(sc)
	items, _ := sc.stage(len(t.entries))
	for i, e := range t.entries {
		optSum, simSum := 0.0, 0.0
		for j := range targets {
			bd := bounders[j].bounds(e.Coord)
			optSum += fs[j].Score(bd.MatchOpt, bd.DistOpt)
			simSum += coordSimilarity(fs[j], coords[j], e.Coord)
		}
		avgOpt, avgSim := optSum*invN, simSum*invN
		key := avgOpt
		if opt.SortBy == ByCoordSimilarity {
			key = avgSim
		}
		items[i] = rankedEntry{e: e, idx: i, opt: avgOpt, sort: key, tie: avgSim}
	}
	src := t.wrapRanked(sc, items, opt.SortBy)

	// Multi-target scoring probes every matcher per candidate, so it
	// materializes each transaction once rather than fusing N decode
	// passes; the single-target engines use scanEntryStats.
	fr := NewFrontier(ctx, opt, t.live)
	offer := func(id txn.TID, tr txn.Transaction) bool {
		sum := 0.0
		for i := range matchers {
			x, y := matchers[i].matchHamming(tr)
			sum += fs[i].Score(x, y)
		}
		return fr.Offer(id, sum*invN)
	}
	scan := func(e *Entry, reads *atomic.Int64) {
		t.scanEntry(e, reads, offer)
	}
	return searchSerial(fr, src, scan), nil
}
