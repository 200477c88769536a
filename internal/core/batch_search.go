package core

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"sigtable/internal/signature"
	"sigtable/internal/simfun"
	"sigtable/internal/txn"
)

// Shared-scan batch execution.
//
// A batch of N targets run as N independent searches re-reads and
// re-decodes the same hot entries up to N times: the branch-and-bound
// order concentrates every target on the handful of entries whose
// optimistic bounds rank highest, which under skewed workloads is
// largely the same handful. QueryBatch instead drives ONE scan over the
// signature table for the whole batch.
//
// The identity argument: each target's search is a deterministic
// function of its own state — its ranked entry order, its top-k heap,
// its budget — and shares nothing semantic with the other targets. The
// batch engine keeps per-target M_opt/D_opt bounds, entry ladder and
// Frontier (heap, scan budget, counters), and replays each target's
// serial loop (searchSerial) verbatim, one entry step at a time,
// through the same Frontier calls. Only the *decoded transactions*
// are shared: when a step must scan an entry, the entry is decoded
// once and the records are parked in a batch-local memo for every
// other live target whose bound for that entry still beats its
// committed threshold. The threshold is monotone, so a target whose
// bound is already beaten can never need the records (its own replay
// will prune the entry when it pops it); everyone else consumes the
// memo at its own pop, scoring against its own pooled bitmap. Results
// are byte-identical to N serial queries at every batch size; only
// PagesRead (fewer — that is the point) and Workers differ.
//
// Step interleaving across targets picks, at every step, the live
// target whose queue root ranks highest under the shared visiting
// order (rankedBefore) — the batch-wide best optimistic bound. That
// concentrates simultaneous interest on the same entries, maximizing
// memo reuse; the interleaving cannot affect any target's answer, only
// how often a decode is shared.

// batchMemo parks one entry's decoded records for targets that will
// consume them later. want/remaining track exactly which targets were
// counted, so a target that meanwhile prunes or finishes releases its
// claim without consuming.
type batchMemo struct {
	ids       []txn.TID
	txns      []txn.Transaction
	want      []bool // by target index
	remaining int
}

// batchTarget is one target's complete serial-search state.
type batchTarget struct {
	f  simfun.Func // bound to the target when TargetAware
	m  matcher
	sc *queryScratch

	src     *entryLadder
	opts    []float64 // optimistic bound by entry slot (memo interest checks)
	visited []bool    // entries this target has popped

	fr    *Frontier
	score func(id txn.TID, x, y int) bool // offers f.Score(x, y) to fr
	reads atomic.Int64

	res      Result // set by finishTarget
	finished bool
}

// retired reports that the target's search can take no further step:
// its frontier stopped (interrupted, budget, prune-break) or its
// ladder is drained.
func (bt *batchTarget) retired() bool {
	return !bt.fr.Live() || bt.src.Len() == 0
}

// minBatchScoreFan gates intra-entry scoring fan-out: entries smaller
// than this are scored inline, since goroutine handoff would cost more
// than the scoring. A variable so tests can force the fan-out path on
// small fixtures.
var minBatchScoreFan = 4096

// QueryBatch answers one branch-and-bound search per target over a
// single shared scan of the signature table. Every Result is
// byte-identical to what a serial Table.Query of that target under the
// same options returns — neighbors, cost counters, certificate — with
// two execution-report exceptions: PagesRead reflects the shared scan
// (an entry's pages are fetched once per batch, not once per target,
// and the fetch is attributed to the target that triggered it), and
// Workers reports the scoring fan-out.
//
// workers bounds the goroutines that score one decoded entry's
// transactions for one target (0 = GOMAXPROCS, 1 = inline). The
// similarity function must be safe for concurrent Score calls when
// workers != 1.
//
// Cancellation is per target: each target's replay checks the context
// at its serial loop's checkpoints, so a deadline leaves every
// unfinished target with a partial result and Interrupted set, while
// targets that already closed their certificate keep their exact
// answers.
func (t *Table) QueryBatch(ctx context.Context, targets []txn.Transaction, f simfun.Func, opt QueryOptions, workers int) ([]Result, error) {
	opt, err := opt.Normalize()
	if err != nil {
		return nil, err
	}
	results := make([]Result, len(targets))
	if len(targets) == 0 {
		return results, nil
	}
	if t.live == 0 {
		for i := range results {
			results[i] = Result{Certified: true, Workers: 1}
		}
		return results, nil
	}
	fan := resolveScoreFan(workers)

	memos := make([]*batchMemo, len(t.entries))
	bts := make([]*batchTarget, len(targets))
	for j, target := range targets {
		fj := f
		if ta, ok := f.(simfun.TargetAware); ok {
			fj = ta.Bind(target)
		}
		sc := t.getScratch()
		overlaps := t.part.Overlaps(target, sc.overlaps)
		targetCoord := signature.CoordOfOverlaps(overlaps, t.r)
		src := t.rankSource(sc, fj, overlaps, targetCoord, opt.SortBy)

		bt := &batchTarget{
			f:       fj,
			m:       t.newMatcher(target),
			sc:      sc,
			src:     src,
			opts:    make([]float64, len(t.entries)),
			visited: make([]bool, len(t.entries)),
			fr:      NewFrontier(ctx, opt, t.live),
		}
		bt.score = func(id txn.TID, x, y int) bool {
			return bt.fr.Offer(id, bt.f.Score(x, y))
		}
		src.All(func(re rankedEntry) {
			bt.opts[re.idx] = re.opt
		})
		bts[j] = bt
	}
	defer func() {
		for _, bt := range bts {
			t.releaseMatcher(bt.m)
			t.putScratch(bt.sc)
		}
	}()

	live := len(bts)
	for live > 0 {
		j := pickTarget(bts)
		bt := bts[j]
		if !bt.retired() {
			t.stepTarget(bts, j, memos, fan)
		}
		if bt.retired() {
			t.finishTarget(bts, j, memos, fan)
			live--
		}
	}
	for j, bt := range bts {
		results[j] = bt.res
	}
	return results, nil
}

func resolveScoreFan(workers int) int {
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// pickTarget selects the live target whose next entry ranks highest
// under the shared visiting order; a retired target is picked first so
// it finishes immediately. Ties fall to the lower index.
func pickTarget(bts []*batchTarget) int {
	pick := -1
	for j, bt := range bts {
		if bt.finished {
			continue
		}
		if bt.retired() {
			return j
		}
		if pick == -1 || rankedBefore(bt.src.Peek(), bts[pick].src.Peek()) {
			pick = j
		}
	}
	return pick
}

// stepTarget replays one iteration of target j's serial loop: pop the
// most promising entry, prune or scan it, then re-check the context —
// bit for bit the body of searchSerial, with the entry's records coming
// from the shared memo (or producing one) instead of a private scan.
// Values beyond a budget stop were never computed by the serial loop
// either — the offer loop stops before scoring them.
func (t *Table) stepTarget(bts []*batchTarget, j int, memos []*batchMemo, fan int) {
	bt := bts[j]
	re := bt.src.Pop()
	bt.visited[re.idx] = true
	if bt.fr.Prune(re.opt, bt.src.Drop) {
		releaseMemoClaim(memos, re.idx, j)
		return
	}
	bt.fr.Enter(re.opt, re.e.Count)
	defer bt.fr.Leave()

	memo := memos[re.idx]
	if memo == nil {
		// Interest is computed before the decode: another target wants
		// this entry's records iff its bound still beats its committed
		// threshold, and thresholds only move when a target itself
		// steps — never during this decode. An entry nobody else wants
		// streams straight through the scorer, exactly like the serial
		// loop, with no buffering at all.
		want, remaining := memoInterest(bts, j, re.idx)
		if remaining == 0 {
			t.scanEntryStats(re.e, &bt.m, &bt.reads, bt.score)
			return
		}
		memo = &batchMemo{
			ids:       make([]txn.TID, 0, re.e.Count),
			txns:      make([]txn.Transaction, 0, re.e.Count),
			want:      want,
			remaining: remaining,
		}
		t.scanEntry(re.e, &bt.reads, func(id txn.TID, tr txn.Transaction) bool {
			memo.ids = append(memo.ids, id)
			memo.txns = append(memo.txns, tr)
			return true
		})
		memos[re.idx] = memo
	} else {
		releaseMemoClaim(memos, re.idx, j)
	}
	if fan > 1 && len(memo.txns) >= minBatchScoreFan {
		vals := t.scoreFan(bt, memo.txns, fan)
		for ci, id := range memo.ids {
			if !bt.fr.Offer(id, vals[ci]) {
				return
			}
		}
		return
	}
	for ci, id := range memo.ids {
		x, y := bt.m.matchHamming(memo.txns[ci])
		if !bt.score(id, x, y) {
			return
		}
	}
}

// memoInterest reports which targets other than j will consume entry
// idx's records later: every live target that has not yet popped the
// entry and whose bound for it still beats its committed threshold. A
// target whose bound is already beaten is skipped outright: its
// threshold only rises, so its own replay is guaranteed to prune the
// entry. want is nil when remaining is 0.
func memoInterest(bts []*batchTarget, j, idx int) (want []bool, remaining int) {
	for o, other := range bts {
		if o == j || other.finished || other.visited[idx] {
			continue
		}
		if other.fr.Prunable(other.opts[idx]) {
			continue
		}
		if want == nil {
			want = make([]bool, len(bts))
		}
		want[o] = true
		remaining++
	}
	return want, remaining
}

// scoreFan computes the similarity of every record against one target
// with fan goroutines over disjoint chunks. Scoring is pure — the
// bitmap is read-only, Score is concurrency-safe by QueryBatch's
// workers contract — so the values are identical to inline scoring;
// only the wall time changes.
func (t *Table) scoreFan(bt *batchTarget, txns []txn.Transaction, fan int) []float64 {
	vals := make([]float64, len(txns))
	chunk := (len(txns) + fan - 1) / fan
	var wg sync.WaitGroup
	for lo := 0; lo < len(txns); lo += chunk {
		hi := lo + chunk
		if hi > len(txns) {
			hi = len(txns)
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				x, y := bt.m.matchHamming(txns[i])
				vals[i] = bt.f.Score(x, y)
			}
		}(lo, hi)
	}
	wg.Wait()
	return vals
}

// releaseMemoClaim drops target j's claim on an entry's memo, freeing
// the memo once nobody else is waiting.
func releaseMemoClaim(memos []*batchMemo, idx, j int) {
	memo := memos[idx]
	if memo == nil || !memo.want[j] {
		return
	}
	memo.want[j] = false
	memo.remaining--
	if memo.remaining == 0 {
		memos[idx] = nil
	}
}

// finishTarget computes target j's certificate over everything its
// replay left unresolved — the exact epilogue of searchSerial — and
// releases its outstanding memo claims so parked decodes don't outlive
// their audience.
func (t *Table) finishTarget(bts []*batchTarget, j int, memos []*batchMemo, fan int) {
	bt := bts[j]
	bt.res = bt.fr.Finish(bt.src.MaxRemainingOpt())
	bt.res.PagesRead = bt.reads.Load()
	bt.res.Workers = fan
	bt.finished = true

	for idx, memo := range memos {
		if memo != nil && memo.want[j] {
			releaseMemoClaim(memos, idx, j)
		}
	}
}
