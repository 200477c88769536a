package core

import (
	"context"
	"fmt"
	"sync/atomic"

	"sigtable/internal/pager"
	"sigtable/internal/signature"
	"sigtable/internal/simfun"
	"sigtable/internal/txn"
)

// Shard-engine primitives. The sharded index (internal/shard) drives
// the branch-and-bound loop at a coordinator (through Frontier, the
// loop's bookkeeping every engine shares) while per-shard workers
// score their entries speculatively. For the replay to be
// byte-identical to a single-table search, the coordinator needs the
// exact same ranking keys and visiting order as this package — so
// those pieces are exported here as small, target-bound "plans" rather
// than re-derived (and inevitably diverging) in the shard package.

// CancelCheckEvery is the number of transaction scans between context
// cancellation checks inside one entry (cancelCheckInterval); shard
// workers poll their stop flag at the same cadence.
const CancelCheckEvery = cancelCheckInterval

// EntrySummary is a snapshot of one occupied supercoordinate: its
// coordinate and live transaction count. Summaries taken under a
// shard's read lock stay valid after the lock is released, unlike
// *Entry pointers whose Count mutates.
type EntrySummary struct {
	Coord signature.Coord
	Count int
}

// EntrySummaries appends a snapshot of every occupied entry (in
// coordinate order) to dst and returns it.
func (t *Table) EntrySummaries(dst []EntrySummary) []EntrySummary {
	if cap(dst) < len(t.entries) {
		dst = make([]EntrySummary, 0, len(t.entries))
	} else {
		dst = dst[:0]
	}
	for _, e := range t.entries {
		dst = append(dst, EntrySummary{Coord: e.Coord, Count: e.Count})
	}
	return dst
}

// CompareRanked is the entry visiting order as a pure function of the
// ranking keys: decreasing sort key, ties broken by decreasing
// supercoordinate similarity, then increasing coordinate. It reports
// whether entry a is visited before entry b. rankedBefore (the
// in-package order) delegates here, so the two cannot drift.
func CompareRanked(sortA, tieA float64, coordA signature.Coord, sortB, tieB float64, coordB signature.Coord) bool {
	if sortA != sortB {
		return sortA > sortB
	}
	if tieA != tieB {
		return tieA > tieB
	}
	return coordA < coordB
}

// TargetPlan precomputes the target-dependent pieces of entry ranking
// for one query — similarity functions bound per target, bounders and
// target coordinates — against a partition and activation threshold,
// independent of any particular table. Two plans built from the same
// partition, threshold and targets produce bit-identical keys, which is
// what lets every shard (and the coordinator) rank coordinates in the
// exact order a single table would.
type TargetPlan struct {
	fs       []simfun.Func
	bounders []*bounder
	coords   []signature.Coord
	invN     float64
}

// NewTargetPlan builds the ranking plan for one or more targets under
// f. With several targets the keys are per-target averages, matching
// MultiQuery; with one target they match Query exactly.
func NewTargetPlan(part *signature.Partition, r int, targets []txn.Transaction, f simfun.Func) *TargetPlan {
	p := &TargetPlan{
		fs:       make([]simfun.Func, len(targets)),
		bounders: make([]*bounder, len(targets)),
		coords:   make([]signature.Coord, len(targets)),
		invN:     1 / float64(len(targets)),
	}
	for i, tgt := range targets {
		fi := f
		if ta, ok := f.(simfun.TargetAware); ok {
			fi = ta.Bind(tgt)
		}
		p.fs[i] = fi
		p.bounders[i] = &bounder{overlaps: part.Overlaps(tgt, nil), r: r}
		p.coords[i] = part.Coord(tgt, r)
	}
	return p
}

// Rank computes one coordinate's keys: the optimistic bound (always
// the prune key), the sort key for the chosen criterion, and the
// tie-break key. The single-target path avoids the averaging loop so
// its floats are bit-identical to the directory kernel's.
func (p *TargetPlan) Rank(c signature.Coord, by SortCriterion) (opt, sortKey, tie float64) {
	if len(p.fs) == 1 {
		bd := p.bounders[0].bounds(c)
		opt = p.fs[0].Score(bd.MatchOpt, bd.DistOpt)
		tie = coordSimilarity(p.fs[0], p.coords[0], c)
	} else {
		optSum, simSum := 0.0, 0.0
		for j := range p.fs {
			bd := p.bounders[j].bounds(c)
			optSum += p.fs[j].Score(bd.MatchOpt, bd.DistOpt)
			simSum += coordSimilarity(p.fs[j], p.coords[j], c)
		}
		opt, tie = optSum*p.invN, simSum*p.invN
	}
	sortKey = opt
	if by == ByCoordSimilarity {
		sortKey = tie
	}
	return opt, sortKey, tie
}

// TargetCoord returns the first target's supercoordinate (the query
// target for single-target plans).
func (p *TargetPlan) TargetCoord() signature.Coord { return p.coords[0] }

// RankedStream walks one table's occupied entries in the global
// visiting order for a plan — the shard worker's replacement for
// ranking its snapshot with per-coordinate Rank calls and a full sort.
// Single-target plans route through the table's directory kernel and
// counting-sort ladder (directory.go), so a worker pays the bit-sliced
// cost and sorts only the order prefix it actually streams; multi-
// target plans rank eagerly (the keys need the averaging loop) but
// still consume through the ladder. The stream borrows query scratch
// from the table's pool: Close it when done. It is not safe for
// concurrent use.
type RankedStream struct {
	t      *Table
	sc     *queryScratch
	src    *entryLadder
	issued []bool
}

// NewRankedStream ranks the table's entries under the plan and
// criterion. The order is bit-identical to the single-table visiting
// order restricted to this table's coordinates.
func (t *Table) NewRankedStream(p *TargetPlan, by SortCriterion) *RankedStream {
	sc := t.getScratch()
	var src *entryLadder
	if len(p.fs) == 1 {
		src = t.rankSource(sc, p.fs[0], p.bounders[0].overlaps, p.coords[0], by)
	} else {
		items := resizeItems(&sc.items, len(t.entries))
		for i, e := range t.entries {
			opt, sortKey, tie := p.Rank(e.Coord, by)
			items[i] = rankedEntry{e: e, idx: i, opt: opt, sort: sortKey, tie: tie}
		}
		src = t.wrapRanked(sc, items, by)
	}
	return &RankedStream{t: t, sc: sc, src: src, issued: make([]bool, len(t.entries))}
}

// Len reports how many coordinates remain.
func (rs *RankedStream) Len() int { return rs.src.Len() }

// RankedCoord is one coordinate as a RankedStream visits it: its
// ranking keys, bit-identical to TargetPlan.Rank's, and its entry's
// live transaction count.
type RankedCoord struct {
	Coord          signature.Coord
	Opt, Sort, Tie float64
	Count          int
}

// Next returns the next coordinate in visiting order; ok is false when
// the stream is exhausted.
func (rs *RankedStream) Next() (c signature.Coord, ok bool) {
	rc, ok := rs.NextRanked()
	return rc.Coord, ok
}

// NextRanked is Next with the coordinate's keys and live count — what
// a coordinator needs to merge several tables' streams into the
// global visiting order with CompareRanked.
func (rs *RankedStream) NextRanked() (RankedCoord, bool) {
	if rs.src.Len() == 0 {
		return RankedCoord{}, false
	}
	re := rs.src.Pop()
	rs.issued[re.idx] = true
	return RankedCoord{Coord: re.e.Coord, Opt: re.opt, Sort: re.sort, Tie: re.tie, Count: re.e.Count}, true
}

// DrainRest consumes every coordinate the stream has not returned yet,
// visiting each with its optimistic bound in unspecified order.
func (rs *RankedStream) DrainRest(fn func(c signature.Coord, opt float64)) {
	rs.src.All(func(re rankedEntry) { fn(re.e.Coord, re.opt) })
	rs.src.Drop()
}

// Upcoming appends up to depth not-yet-reported upcoming coordinates
// (in approximate visiting order, without consuming them) to dst — the
// prefetch lookahead. Each coordinate is reported at most once per
// stream, so repeated calls cost nothing once the window is covered.
func (rs *RankedStream) Upcoming(depth int, dst []signature.Coord) []signature.Coord {
	rs.src.Prefix(depth, func(re rankedEntry) {
		if rs.issued[re.idx] {
			return
		}
		rs.issued[re.idx] = true
		dst = append(dst, re.e.Coord)
	})
	return dst
}

// Close returns the stream's scratch to the table's pool.
func (rs *RankedStream) Close() {
	rs.t.putScratch(rs.sc)
	rs.src = nil
}

// Overlaps returns the first target's per-signature overlap counts r_j.
func (p *TargetPlan) Overlaps() []int { return p.bounders[0].overlaps }

// Bounds computes the first target's raw optimistic statistics for one
// coordinate — the Explain building block.
func (p *TargetPlan) Bounds(c signature.Coord) Bounds { return p.bounders[0].bounds(c) }

// RangePlan precomputes a range query's prune predicate against a
// partition and activation threshold, mirroring rangePrunable.
type RangePlan struct {
	fs          []simfun.Func
	constraints []RangeConstraint
	b           *bounder
}

// NewRangePlan binds the constraints to the target and validates them
// with the same errors RangeQuery reports.
func NewRangePlan(part *signature.Partition, r int, target txn.Transaction, constraints []RangeConstraint) (*RangePlan, error) {
	if len(constraints) == 0 {
		return nil, fmt.Errorf("core: range query needs at least one constraint")
	}
	fs := make([]simfun.Func, len(constraints))
	for i, c := range constraints {
		f := c.F
		if f == nil {
			return nil, fmt.Errorf("core: constraint %d has nil similarity function", i)
		}
		if ta, ok := f.(simfun.TargetAware); ok {
			f = ta.Bind(target)
		}
		fs[i] = f
	}
	return &RangePlan{
		fs:          fs,
		constraints: constraints,
		b:           &bounder{overlaps: part.Overlaps(target, nil), r: r},
	}, nil
}

// Prunable reports that some constraint's optimistic bound falls below
// its threshold for this coordinate — exactly rangePrunable's decision.
func (p *RangePlan) Prunable(c signature.Coord) bool {
	bd := p.b.bounds(c)
	for i, f := range p.fs {
		if f.Score(bd.MatchOpt, bd.DistOpt) < p.constraints[i].Threshold {
			return true
		}
	}
	return false
}

// ShardScorer scans and scores one table's entries for a fixed target
// set, producing the same float values Query and MultiQuery score. It
// holds pooled matchers; callers must Release it.
type ShardScorer struct {
	t        *Table
	fs       []simfun.Func
	matchers []matcher
	invN     float64

	// emit is the current ScanCoord callback; stats and whole adapt the
	// table's scan callbacks to it and are built once per scorer, so a
	// scan allocates nothing per entry.
	emit  func(id txn.TID, value float64) bool
	stats func(id txn.TID, x, y int) bool
	whole func(id txn.TID, tr txn.Transaction) bool
}

// NewShardScorer prepares the scoring kernel for targets under f
// against one table. The target binding and matcher setup mirror Query
// (one target) and MultiQuery (several).
func NewShardScorer(t *Table, targets []txn.Transaction, f simfun.Func) *ShardScorer {
	s := &ShardScorer{
		t:        t,
		fs:       make([]simfun.Func, len(targets)),
		matchers: make([]matcher, len(targets)),
		invN:     1 / float64(len(targets)),
	}
	for i, tgt := range targets {
		fi := f
		if ta, ok := f.(simfun.TargetAware); ok {
			fi = ta.Bind(tgt)
		}
		s.fs[i] = fi
		s.matchers[i] = t.newMatcher(tgt)
	}
	s.stats = func(id txn.TID, x, y int) bool { return s.emit(id, s.fs[0].Score(x, y)) }
	s.whole = func(id txn.TID, tr txn.Transaction) bool { return s.emit(id, s.score(tr)) }
	return s
}

// ScanCoord visits each live transaction of the entry at coordinate c
// (pages first, then insert overflow, in TID-append order — the exact
// scanEntry order) with its similarity value. Returning false stops the
// scan. A coordinate with no entry is a no-op. Page fetches accumulate
// into reads when non-nil.
func (s *ShardScorer) ScanCoord(c signature.Coord, reads *atomic.Int64, fn func(id txn.TID, value float64) bool) {
	slot, ok := s.t.byCoord[c]
	if !ok {
		return
	}
	e := s.t.entries[slot]
	s.emit = fn
	if len(s.fs) == 1 {
		// Single target: fuse decode and scoring, like Query.
		s.t.scanEntryStats(e, &s.matchers[0], reads, s.stats)
		return
	}
	s.t.scanEntry(e, reads, s.whole)
}

// Readahead resolves a per-query readahead depth request against the
// table's prefetch pipeline: 0 when the table has no prefetcher or the
// request disables it, otherwise the depth in upcoming coordinates the
// shard worker should offer ahead via PrefetchCoords.
func (s *ShardScorer) Readahead(requested int) int {
	pf := s.t.prefetcher()
	if pf == nil {
		return 0
	}
	return pf.Readahead(requested)
}

// PrefetchCoords offers the page lists of the entries at the given
// coordinates to the table's prefetch pipeline (no-op without one).
// Coordinates without an entry or without pages are skipped.
func (s *ShardScorer) PrefetchCoords(ctx context.Context, coords []signature.Coord) {
	pf := s.t.prefetcher()
	if pf == nil {
		return
	}
	var pages []pager.PageID
	for _, c := range coords {
		if slot, ok := s.t.byCoord[c]; ok {
			for _, l := range s.t.entries[slot].lists {
				pages = append(pages, l.Pages...)
			}
		}
	}
	if len(pages) > 0 {
		pf.Request(ctx, pages)
	}
}

func (s *ShardScorer) score(tr txn.Transaction) float64 {
	if len(s.fs) == 1 {
		x, y := s.matchers[0].matchHamming(tr)
		return s.fs[0].Score(x, y)
	}
	sum := 0.0
	for i := range s.matchers {
		x, y := s.matchers[i].matchHamming(tr)
		sum += s.fs[i].Score(x, y)
	}
	return sum * s.invN
}

// Release returns the pooled matchers. The scorer is unusable after.
func (s *ShardScorer) Release() {
	for _, m := range s.matchers {
		s.t.releaseMatcher(m)
	}
	s.matchers = nil
}
