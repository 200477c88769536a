package core

import (
	"math"
	"math/bits"
	"slices"
	"sync/atomic"
	"time"

	"sigtable/internal/signature"
	"sigtable/internal/simfun"
)

// Columnar entry directory and bit-sliced entry ranking.
//
// The per-query cost the paper never optimizes is ranking: before the
// first transaction is scanned, FindOptimisticBound runs over every
// occupied supercoordinate — an O(entries×K) sweep with two similarity
// calls per entry — and the results are heapified. After the I/O path
// was crushed (block-compressed pages, coalesced preads), that sweep is
// the dominant per-query CPU cost on the memory path, repeated per
// target in the batch engine and per shard worker in the sharded one.
//
// The directory turns the sweep inside out. Instead of asking, per
// entry, "which of the target's signatures does this coordinate
// activate?", it stores — per signature j — a packed bitmap over entry
// slots with bit s set iff slot s's coordinate activates j
// (signature-major, the transpose of the entry-major coordinate array).
// The bound computation then decomposes exactly (bounder.bounds, all
// integer arithmetic):
//
//	M_opt(c) = baseM + Σ_{j∈c, r_j>0} max(0, r_j-r+1)
//	D_opt(c) = baseD + r·pop(c) + Σ_{j∈c, r_j>0} wD_j
//	           wD_j = -r_j        when r_j < r
//	                = -(r_j+1)    otherwise
//
// where baseM = Σ_j min(r_j, r-1) and baseD = Σ_j max(0, r_j-r+1) are
// the all-bits-inactive baseline, and the r·pop(c) term folds the
// active signatures the target never overlaps (r_j = 0, each
// contributing exactly r to D_opt and nothing to M_opt) into a
// precomputed per-slot popcount. Only signatures with r_j > 0 carry
// per-slot corrections, so the kernel iterates just the set bits of
// those bitmaps — work proportional to the total activation count of
// overlapped signatures, not entries×K, with two branch-free int32
// adds per set bit. The integers, and therefore the f.Score floats,
// are bit-identical to the naive loop's.
//
// Ranked entries then go into a ladder that orders only the prefix the
// search consumes. Sort keys map (via the order-preserving float→uint64
// encoding encodeThreshold) onto radix keys, and one counting pass
// splits the entries by the top varying 8 bits of the keys' span into
// at most 256 segments whose key ranges are disjoint and descending.
// When consumption reaches a segment it is split again by the top
// varying bits of its own keys, the later bins going onto a stack of
// pending segments; only the front bin is refined further. A bin that
// is small or holds a single sort key gets its tie-break keys (in bound
// order, the second similarity call per entry) and is then fully
// ordered. The recursion is what makes the ladder pay: the top bits of
// a float's encoding are its sign and exponent, so a split on the whole
// span leaves every bound in [0.5, 1) in one bin — on a
// 50k-transaction K=15 table, 15.9k of 17.4k entries, of which a k=1
// search visits 1.7k. A prune break needs only a count of what is
// left, so the tail behind it is never ordered. The visiting order is
// a strict total order — coordinates are unique within a table — so
// the lazily split ladder yields the same sequence as a full sort of
// all entries by CompareRanked, element for element.

// Process-wide directory telemetry. Counters live at package level,
// not on the Table, so they survive the table swaps Rebuild/Compact
// perform and stay monotone for Prometheus scrapes.
var (
	dirRebuilds  atomic.Uint64 // directories built from scratch
	dirRanks     atomic.Uint64 // bit-sliced ranking passes
	dirRankNanos atomic.Int64  // cumulative nanoseconds ranking entries
	dirRanked    atomic.Uint64 // entries the kernel bounded
	dirOrdered   atomic.Uint64 // entries a ladder put in final order
)

// directory is the columnar activation index over a table's entry
// slots. Slots are assigned in append order and never reused: Build
// numbers the coordinate-sorted entries 0..n-1, Insert of a brand-new
// coordinate appends the next slot, and Delete leaves the slot in
// place (the entry itself survives tombstoning). The table keeps its
// entries slice in the same slot order, so t.entries[s] is the entry at
// slot s and the directory itself stores only coordinate-derived bits.
// Readers treat a directory as immutable: addSlot mutates only a
// directory no reader has seen yet (newDirectory's, or the copy
// withSlot derives for a snapshot insert).
type directory struct {
	k      int
	slots  int
	stride int      // words per signature row (row capacity = stride*64 slots)
	bits   []uint64 // k rows × stride words, row-major
	pop    []uint8  // per-slot activation popcount (K <= 63 fits a byte)
}

// newDirectory builds the directory from scratch over the given
// entries (Build and Rebuild hand it the coordinate-sorted slice, so
// initial slot order equals entry order).
func newDirectory(k int, entries []*Entry) *directory {
	d := &directory{k: k}
	d.ensure(len(entries))
	for _, e := range entries {
		d.addSlot(e.Coord)
	}
	dirRebuilds.Add(1)
	return d
}

// ensure grows every signature row to hold at least n slots, doubling
// so incremental inserts amortize to O(1) words per slot.
func (d *directory) ensure(n int) {
	if n <= d.stride*64 {
		return
	}
	stride := d.stride * 2
	if stride == 0 {
		stride = 1
	}
	for stride*64 < n {
		stride *= 2
	}
	nb := make([]uint64, d.k*stride)
	for j := 0; j < d.k; j++ {
		copy(nb[j*stride:], d.bits[j*d.stride:(j+1)*d.stride])
	}
	d.bits, d.stride = nb, stride
}

// addSlot appends one slot for a coordinate, setting its bit in every
// signature row the coordinate activates. In place: only for a
// directory still private to its builder.
func (d *directory) addSlot(coord signature.Coord) {
	d.ensure(d.slots + 1)
	s := d.slots
	d.slots++
	c := uint64(coord)
	d.pop = append(d.pop, uint8(bits.OnesCount64(c)))
	w, bit := s>>6, uint(s&63)
	for c != 0 {
		j := bits.TrailingZeros64(c)
		d.bits[j*d.stride+w] |= 1 << bit
		c &= c - 1
	}
}

// withSlot returns a derived directory with one slot appended for the
// coordinate, leaving the receiver untouched for concurrent readers.
// The bit rows are copied before the new slot's bits are set — the
// word holding slot s is shared with up to 63 earlier slots that live
// readers are ranking over, so an in-place |= would race them. The pop
// append extends (possibly shared) backing at the monotone index
// d.slots, which no reader of an older directory addresses; callers
// must serialize withSlot chains, always deriving from the newest
// directory, the same discipline the snapshot writer protocol imposes
// everywhere.
func (d *directory) withSlot(coord signature.Coord) *directory {
	nd := &directory{k: d.k, slots: d.slots, stride: d.stride, pop: d.pop}
	if d.slots+1 > d.stride*64 {
		// ensure reallocates the rows into fresh backing: the copy is
		// the growth it would do anyway.
		nd.bits = d.bits
		nd.ensure(d.slots + 1)
	} else {
		nd.bits = append([]uint64(nil), d.bits...)
	}
	nd.addSlot(coord)
	return nd
}

// bytes reports the directory's memory footprint.
func (d *directory) bytes() int64 {
	return int64(len(d.bits)*8 + len(d.pop))
}

// DirectoryStats reports the entry directory's size and the
// process-wide ranking counters — the backing data of the
// sigtable_directory_* metric family and the /v1/stats directory
// section.
type DirectoryStats struct {
	// Slots is this table's directory slot count (== occupied entries).
	Slots int
	// Bytes is this table's directory memory footprint.
	Bytes int64
	// Rebuilds counts from-scratch directory constructions
	// process-wide (every Build/Rebuild/Compact), so the counter stays
	// monotone across table swaps.
	Rebuilds uint64
	// Ranks counts bit-sliced ranking passes process-wide.
	Ranks uint64
	// RankSeconds is the cumulative wall time of those passes: the
	// kernel plus the ladder's first split. Ordering done lazily during
	// consumption (later splits, tie keys, final sorts) is excluded.
	RankSeconds float64
	// EntriesRanked counts entries the bit-sliced kernel bounded,
	// process-wide.
	EntriesRanked uint64
	// EntriesOrdered counts entries a ladder put in final visiting
	// order, process-wide. The gap to EntriesRanked is the ranking the
	// lazy ladder skipped: entries behind a prune break or a stop.
	EntriesOrdered uint64
}

// DirectoryStats snapshots the table's directory and the process-wide
// ranking counters.
func (t *Table) DirectoryStats() DirectoryStats {
	st := DirectoryStats{
		Rebuilds:       dirRebuilds.Load(),
		Ranks:          dirRanks.Load(),
		RankSeconds:    float64(dirRankNanos.Load()) / 1e9,
		EntriesRanked:  dirRanked.Load(),
		EntriesOrdered: dirOrdered.Load(),
	}
	st.Slots = t.dir.slots
	st.Bytes = t.dir.bytes()
	return st
}

// entryLadder is the best-first container every engine consumes
// ranked entries from. items[pos:ordered] is the ordered region, in
// final visiting order. items[ordered:] is cut into pending segments
// whose key ranges are disjoint and descend in visiting order; pending
// holds their ends, the first segment's end on top. Pop and Peek
// require Len() > 0. It is not safe for concurrent use.
type entryLadder struct {
	items   []rankedEntry
	keys    []uint64 // radixKey of each pending item's sort key
	pos     int      // index of the next item
	ordered int      // end of the ordered region
	pending []int32  // pending segment ends, a stack; its backing stays in the pooled scratch
	splits  int      // segments split during consumption

	// Split scratch, as long as items; the ranking pass staged items
	// and keys here before the first split.
	tmpE []rankedEntry
	tmpK []uint64

	lazyTie bool // bound order: tie keys filled when a segment is ordered
	byBound bool
	f       simfun.Func
	target  signature.Coord
}

// newLadder moves n staged items, with radix keys in [mn, mx], into the
// scratch's ladder by one split pass. Nothing is ordered yet.
func newLadder(sc *queryScratch, n int, mn, mx uint64, by SortCriterion, f simfun.Func, target signature.Coord, lazyTie bool) *entryLadder {
	l := &sc.ladder
	*l = entryLadder{
		items:   resizeItems(&sc.items, n),
		keys:    resizeU64(&sc.keys, n),
		pending: l.pending[:0],
		tmpE:    sc.tmpItems[:n],
		tmpK:    sc.tmpKeys[:n],
		lazyTie: lazyTie,
		byBound: by == ByOptimisticBound,
		f:       f,
		target:  target,
	}
	l.split(0, l.tmpE, l.tmpK, mn, mx)
	return l
}

// Len reports how many ranked entries remain.
func (l *entryLadder) Len() int { return len(l.items) - l.pos }

// advance makes sure the next item is ordered: while the ordered
// region is used up, it takes the first pending segment and splits it
// (a large one with distinct sort keys) or orders it fully.
func (l *entryLadder) advance() {
	for l.pos == l.ordered {
		top := len(l.pending) - 1
		lo, hi := l.ordered, int(l.pending[top])
		l.pending = l.pending[:top]
		seg, keys := l.items[lo:hi], l.keys[lo:hi]
		if len(seg) > radixCutover {
			if mn, mx := minmaxU64(keys); mn != mx {
				tmpE, tmpK := l.tmpE[:len(seg)], l.tmpK[:len(seg)]
				copy(tmpE, seg)
				copy(tmpK, keys)
				l.split(lo, tmpE, tmpK, mn, mx)
				l.splits++
				continue
			}
		}
		l.order(seg, keys)
		l.ordered = hi
	}
}

// split scatters srcE (keys srcK, spanning [mn, mx]) into items from lo
// on, binned by the top varying 8 bits of the span, and pushes the
// bins' ends so the front bin is on top.
func (l *entryLadder) split(lo int, srcE []rankedEntry, srcK []uint64, mn, mx uint64) {
	hi := lo + len(srcE)
	counts := scatterByDigit(l.items[lo:hi], l.keys[lo:hi], srcE, srcK, mn, mx)
	for b := len(counts) - 1; b >= 0; b-- {
		if c := int(counts[b]); c > 0 {
			l.pending = append(l.pending, int32(hi))
			hi -= c
		}
	}
}

// order puts a segment that is small or holds a single sort key into
// final visiting order, filling its tie keys first when they are lazy.
func (l *entryLadder) order(seg []rankedEntry, keys []uint64) {
	if l.lazyTie {
		for i := range seg {
			seg[i].tie = coordSimilarity(l.f, l.target, seg[i].e.Coord)
		}
	}
	if len(seg) <= radixCutover {
		cmpRanked(seg)
	} else {
		// One sort key: order by tie, then coordinate. Bound scores
		// take few discrete values, so such a segment can hold
		// thousands of entries, and a comparison sort would spend
		// O(n log n) three-field compares on them.
		fillStageKeys(seg, keys, 1)
		radixStage(seg, keys, l.tmpE, l.tmpK, 1)
	}
	dirOrdered.Add(uint64(len(seg)))
}

// radixCutover is the segment length below which comparison sort beats
// the counting passes.
const radixCutover = 48

// encodeThreshold maps a float64 to a uint64 such that the natural
// float ordering becomes unsigned integer ordering.
func encodeThreshold(v float64) uint64 {
	b := math.Float64bits(v)
	if b&(1<<63) != 0 {
		return ^b
	}
	return b | 1<<63
}

// radixKey is the ladder's key for a sort or tie key: complementing the
// encoding turns ascending radix order into the descending order
// rankedBefore wants, and adding +0.0 first collapses -0 onto +0 so
// equal floats share a key, the same equivalence CompareRanked's !=
// tests use.
func radixKey(v float64) uint64 { return ^encodeThreshold(v + 0) }

func cmpRanked(seg []rankedEntry) {
	// Coordinates are unique within an entry set, so the order is
	// strictly total and one rankedBefore call decides each pair.
	slices.SortFunc(seg, func(a, b rankedEntry) int {
		if rankedBefore(a, b) {
			return -1
		}
		return 1
	})
}

// fillStageKeys materializes the radix key for one comparator field
// below the sort key: stage 1 is the tie key, stage 2 the coordinate.
func fillStageKeys(seg []rankedEntry, keys []uint64, stage int) {
	if stage == 1 {
		for i := range seg {
			keys[i] = radixKey(seg[i].tie)
		}
		return
	}
	for i := range seg {
		keys[i] = uint64(seg[i].e.Coord)
	}
}

// radixStage sorts seg ascending by keys, then refines equal-key runs
// with the next stage's key, bottoming out at the unique coordinates.
func radixStage(seg []rankedEntry, keys []uint64, tmpE []rankedEntry, tmpK []uint64, stage int) {
	radixU64(seg, keys, tmpE, tmpK)
	if stage == 2 {
		return
	}
	for start := 0; start < len(seg); {
		end := start + 1
		for end < len(seg) && keys[end] == keys[start] {
			end++
		}
		if run := seg[start:end]; len(run) > 1 {
			if len(run) <= radixCutover {
				cmpRanked(run)
			} else {
				runKeys := keys[start:end]
				fillStageKeys(run, runKeys, stage+1)
				radixStage(run, runKeys, tmpE, tmpK, stage+1)
			}
		}
		start = end
	}
}

// radixU64 stable-sorts seg ascending by keys. Keys concentrate on
// few discrete values, so the most-significant varying 8 bits usually
// separate them in a single counting pass; adversarial spreads bottom
// out at the byte-at-a-time depth.
func radixU64(seg []rankedEntry, keys []uint64, tmpE []rankedEntry, tmpK []uint64) {
	mn, mx := minmaxU64(keys)
	if mn == mx {
		return
	}
	if len(seg) <= radixCutover {
		insertionByKey(seg, keys)
		return
	}
	radixMSD(seg, keys, tmpE, tmpK, mn, mx)
}

func minmaxU64(keys []uint64) (mn, mx uint64) {
	mn, mx = ^uint64(0), 0
	for _, k := range keys {
		if k < mn {
			mn = k
		}
		if k > mx {
			mx = k
		}
	}
	return mn, mx
}

// insertionByKey is a stable dual insertion sort: seg and keys move in
// lockstep so callers can keep scanning keys for equal runs.
func insertionByKey(seg []rankedEntry, keys []uint64) {
	for i := 1; i < len(keys); i++ {
		k, it := keys[i], seg[i]
		j := i - 1
		for j >= 0 && keys[j] > k {
			keys[j+1], seg[j+1] = keys[j], seg[j]
			j--
		}
		keys[j+1], seg[j+1] = k, it
	}
}

// scatterByDigit stable-scatters srcE and srcK (keys in [mn, mx]) into
// dstE and dstK by the top varying 8 bits of the span — the digit
// (k-mn)>>sh is at most 255 when sh = Len64(mx-mn)-8 — and returns the
// per-digit counts. With mn == mx everything lands in digit 0.
func scatterByDigit(dstE []rankedEntry, dstK []uint64, srcE []rankedEntry, srcK []uint64, mn, mx uint64) (counts [256]int32) {
	sh := uint(0)
	if l := bits.Len64(mx - mn); l > 8 {
		sh = uint(l - 8)
	}
	for _, k := range srcK {
		counts[(k-mn)>>sh]++
	}
	var offs [256]int32
	sum := int32(0)
	for b := range offs {
		offs[b] = sum
		sum += counts[b]
	}
	for i, k := range srcK {
		d := (k - mn) >> sh
		o := offs[d]
		offs[d] = o + 1
		dstE[o], dstK[o] = srcE[i], k
	}
	return counts
}

// radixMSD sorts by the top varying 8 bits and recurses into the bins
// that still hold distinct keys.
func radixMSD(seg []rankedEntry, keys []uint64, tmpE []rankedEntry, tmpK []uint64, mn, mx uint64) {
	tmpE, tmpK = tmpE[:len(seg)], tmpK[:len(seg)]
	copy(tmpE, seg)
	copy(tmpK, keys)
	counts := scatterByDigit(seg, keys, tmpE, tmpK, mn, mx)
	start := int32(0)
	for b := range counts {
		n := counts[b]
		if n > 1 {
			sub, subK := seg[start:start+n], keys[start:start+n]
			if bmn, bmx := minmaxU64(subK); bmn != bmx {
				if int(n) <= radixCutover {
					insertionByKey(sub, subK)
				} else {
					radixMSD(sub, subK, tmpE, tmpK, bmn, bmx)
				}
			}
		}
		start += n
	}
}

// Pop removes and returns the next entry in visiting order.
func (l *entryLadder) Pop() rankedEntry {
	l.advance()
	re := l.items[l.pos]
	l.pos++
	return re
}

// Peek returns the next entry without consuming it.
func (l *entryLadder) Peek() rankedEntry {
	l.advance()
	return l.items[l.pos]
}

// All visits every remaining entry in unspecified order (the batch
// engine's per-entry bound memo fill). Entries not yet ordered carry
// no tie key in bound order.
func (l *entryLadder) All(fn func(rankedEntry)) {
	for i := l.pos; i < len(l.items); i++ {
		fn(l.items[i])
	}
}

// Drop discards everything remaining, returning how many entries were
// dropped — the prune-break accounting. Nothing is ordered.
func (l *entryLadder) Drop() int {
	n := l.Len()
	l.pos, l.ordered = len(l.items), len(l.items)
	return n
}

// MaxRemainingOpt returns the maximum optimistic bound among the
// remaining entries, or -Inf when none remain — the certificate
// epilogue.
func (l *entryLadder) MaxRemainingOpt() float64 {
	if l.Len() == 0 {
		return math.Inf(-1)
	}
	rest := l.items[l.pos:]
	if l.byBound {
		// sort == opt and segments descend, so the maximum is the
		// ordered region's head or lives in the first pending segment.
		if l.pos < l.ordered {
			return l.items[l.pos].opt
		}
		rest = l.items[l.pos:l.pending[len(l.pending)-1]]
	}
	max := math.Inf(-1)
	for _, re := range rest {
		if re.opt > max {
			max = re.opt
		}
	}
	return max
}

// rankSource ranks every entry for one single-target query through
// the directory kernel and returns the ladder to consume. The scratch
// owns all transient storage; the ladder stays valid until the scratch
// is returned to the pool.
func (t *Table) rankSource(sc *queryScratch, f simfun.Func, overlaps []int, targetCoord signature.Coord, by SortCriterion) *entryLadder {
	start := time.Now()
	src := t.rankBitsliced(sc, f, overlaps, targetCoord, by)
	dirRankNanos.Add(time.Since(start).Nanoseconds())
	dirRanks.Add(1)
	dirRanked.Add(uint64(src.Len()))
	return src
}

// rankBitsliced computes every slot's bounds through the directory
// decomposition and splits the ranked entries into the ladder.
func (t *Table) rankBitsliced(sc *queryScratch, f simfun.Func, overlaps []int, targetCoord signature.Coord, by SortCriterion) *entryLadder {
	d := t.dir
	n := d.slots
	r := t.r

	accM := resizeI32(&sc.accM, n)
	accD := resizeI32(&sc.accD, n)
	clear(accM)
	clear(accD)

	// Base terms plus per-slot corrections from the set bits of the
	// overlapped signatures' rows.
	baseM, baseD := 0, 0
	words := (n + 63) >> 6
	for j, rj := range overlaps {
		if rj < r {
			baseM += rj
		} else {
			baseM += r - 1
			baseD += rj - r + 1
		}
		if rj == 0 {
			continue
		}
		wM := int32(rj - r + 1)
		if wM < 0 {
			wM = 0
		}
		wD := -int32(rj)
		if rj >= r {
			wD = -int32(rj + 1)
		}
		row := d.bits[j*d.stride : j*d.stride+words]
		for wi, w := range row {
			base := wi << 6
			for w != 0 {
				s := base + bits.TrailingZeros64(w)
				accM[s] += wM
				accD[s] += wD
				w &= w - 1
			}
		}
	}

	items, keys := sc.stage(n)
	lazyTie := by == ByOptimisticBound
	mn, mx := ^uint64(0), uint64(0)
	for s := 0; s < n; s++ {
		e := t.entries[s]
		m := baseM + int(accM[s])
		dd := baseD + r*int(d.pop[s]) + int(accD[s])
		opt := f.Score(m, dd)
		sortKey, tie := opt, 0.0
		if !lazyTie {
			tie = coordSimilarity(f, targetCoord, e.Coord)
			sortKey = tie
		}
		items[s] = rankedEntry{e: e, idx: s, opt: opt, sort: sortKey, tie: tie}
		k := radixKey(sortKey)
		keys[s] = k
		mn, mx = min(mn, k), max(mx, k)
	}
	return newLadder(sc, n, mn, mx, by, f, targetCoord, lazyTie)
}

// wrapRanked turns eagerly ranked items, staged by sc.stage (the
// multi-target path, which averages per-target keys and has every
// field filled), into a ladder.
func (t *Table) wrapRanked(sc *queryScratch, items []rankedEntry, by SortCriterion) *entryLadder {
	keys := sc.tmpKeys[:len(items)]
	mn, mx := ^uint64(0), uint64(0)
	for i := range items {
		k := radixKey(items[i].sort)
		keys[i] = k
		mn, mx = min(mn, k), max(mx, k)
	}
	return newLadder(sc, len(items), mn, mx, by, nil, 0, false)
}

// resize helpers: grow a pooled slice to length n, reusing capacity.
func resizeI32(p *[]int32, n int) []int32 {
	if cap(*p) < n {
		*p = make([]int32, n)
	}
	*p = (*p)[:n]
	return *p
}

func resizeU64(p *[]uint64, n int) []uint64 {
	if cap(*p) < n {
		*p = make([]uint64, n)
	}
	*p = (*p)[:n]
	return *p
}

func resizeItems(p *[]rankedEntry, n int) []rankedEntry {
	if cap(*p) < n {
		*p = make([]rankedEntry, n)
	}
	*p = (*p)[:n]
	return *p
}
