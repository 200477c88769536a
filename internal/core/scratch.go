package core

import (
	"sigtable/internal/bitset"
	"sigtable/internal/txn"
)

// Per-query buffer reuse. A branch-and-bound query needs three
// transient allocations whose size depends on the table, not on k: the
// ranked entry ladder (one slot per occupied supercoordinate), the
// K-wide overlap slice, and — for the bitmap scoring kernel — a
// membership bitmap over the item universe. At serving rates these
// dominate the per-query allocation profile, so the Table pools all
// three; a steady-state query allocates O(k) for its result and a
// handful of fixed per-search objects, nothing per entry.

// queryScratch bundles the per-query slices that are reused across
// queries of one table: the overlap slice and the bit-sliced ranker's
// accumulators and ladder storage (directory.go). One scratch serves
// one query (or one batch target) at a time; the ladder built from it
// stays valid until the scratch is returned.
type queryScratch struct {
	overlaps []int

	// Bit-sliced ranking state: per-slot bound accumulators, the
	// staging buffers ranking writes into (later the ladder's split
	// scratch), the ladder's items and radix keys, and the ladder
	// itself, whose pending stack keeps its grown backing here.
	accM     []int32
	accD     []int32
	tmpItems []rankedEntry
	tmpKeys  []uint64
	items    []rankedEntry
	keys     []uint64
	ladder   entryLadder
}

// stage returns n-long buffers for a ranking pass to fill before
// newLadder splits them into the ladder.
func (sc *queryScratch) stage(n int) ([]rankedEntry, []uint64) {
	return resizeItems(&sc.tmpItems, n), resizeU64(&sc.tmpKeys, n)
}

func (t *Table) getScratch() *queryScratch {
	if sc, _ := t.shared.scratch.Get().(*queryScratch); sc != nil {
		return sc
	}
	return &queryScratch{overlaps: make([]int, t.part.K())}
}

func (t *Table) putScratch(sc *queryScratch) {
	t.shared.scratch.Put(sc)
}

// maxMaskBits caps the universe size for which the bitmap scoring
// kernel engages: beyond it (8 MiB of mask per pooled bitmap) the
// first-use allocation and cache footprint outweigh the per-candidate
// savings, and scoring falls back to the sorted merge. Pooled bitmaps
// are cleared selectively (only the target's bits), so steady-state
// cost does not depend on the universe size at all — the cap guards
// the initial allocation, not the per-query reset.
const maxMaskBits = 1 << 26

// matcher computes the (match, hamming) statistics of candidates
// against one fixed target, using a pooled membership bitmap when the
// universe is small enough and the sorted merge otherwise. The bitmap
// is read-only after newMatcher returns, so one matcher may be shared
// by concurrent scoring goroutines of the same query.
type matcher struct {
	target txn.Transaction
	mask   *bitset.Set // nil: merge kernel
}

// newMatcher prepares a scoring kernel for the target. The caller must
// release it (releaseMatcher) when the query completes.
func (t *Table) newMatcher(target txn.Transaction) matcher {
	m := matcher{target: target}
	if t.data.UniverseSize() <= maxMaskBits {
		m.mask, _ = t.shared.masks.Get().(*bitset.Set)
		if m.mask == nil {
			m.mask = bitset.New(t.data.UniverseSize())
		}
		target.SetBits(m.mask)
	}
	return m
}

// releaseMatcher clears the target's bits (restoring the pooled
// bitmap's all-zero invariant in O(len(target))) and returns the
// bitmap to the pool.
func (t *Table) releaseMatcher(m matcher) {
	if m.mask != nil {
		m.target.ClearBits(m.mask)
		t.shared.masks.Put(m.mask)
	}
}

// matchHamming computes the paper's x and y statistics for one
// candidate. Safe for concurrent use.
func (m *matcher) matchHamming(tr txn.Transaction) (match, hamming int) {
	if m.mask != nil {
		return txn.MatchHammingBits(m.mask, len(m.target), tr)
	}
	return txn.MatchHamming(m.target, tr)
}
