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
// Ranked entries then go into a counting-sort ladder rather than a
// heap: sort keys quantize (via the order-preserving float→uint64
// encoding encodeThreshold) into at most 256 buckets whose key ranges
// are disjoint and descending, so consuming buckets first-to-last
// visits entries in exactly the visiting order once each bucket is
// sorted — and a bucket is sorted only when consumption reaches it. A
// query that prunes after a short prefix never sorts the tail, and in
// bound order never even computes the tail's tie-break keys (the
// second similarity call per entry). The visiting order is a strict
// total order — coordinates are unique within a table — so the lazily
// sorted ladder yields the same sequence as a full sort of all entries
// by CompareRanked, element for element.

// Process-wide directory telemetry. Counters live at package level,
// not on the Table, so they survive the table swaps Rebuild/Compact
// perform and stay monotone for Prometheus scrapes.
var (
	dirRebuilds  atomic.Uint64 // directories built from scratch
	dirRanks     atomic.Uint64 // bit-sliced ranking passes
	dirRankNanos atomic.Int64  // cumulative nanoseconds ranking entries
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
	// RankSeconds is the cumulative wall time of those passes (kernel
	// plus bucket scatter; lazy bucket sorts during consumption are
	// not included).
	RankSeconds float64
}

// DirectoryStats snapshots the table's directory and the process-wide
// ranking counters.
func (t *Table) DirectoryStats() DirectoryStats {
	st := DirectoryStats{
		Rebuilds:    dirRebuilds.Load(),
		Ranks:       dirRanks.Load(),
		RankSeconds: float64(dirRankNanos.Load()) / 1e9,
	}
	st.Slots = t.dir.slots
	st.Bytes = t.dir.bytes()
	return st
}

// entryLadder is the bucketed best-first container every engine
// consumes ranked entries from: items grouped by quantized sort key
// into buckets whose key ranges are disjoint and strictly descending,
// each bucket sorted (and, in bound order, its tie keys computed) only
// when consumption reaches it. Pop and Peek require Len() > 0. It is
// not safe for concurrent use.
type entryLadder struct {
	items  []rankedEntry // bucket-grouped; bucket b is items[starts[b]:starts[b+1]]
	starts []int32       // len buckets+1
	sorted []bool        // per bucket
	bucket int           // current bucket
	pos    int           // absolute index of the next item
	left   int           // remaining items

	byBound bool
	lazyTie bool // bound order: tie keys filled at bucket-sort time
	f       simfun.Func
	target  signature.Coord
	sc      *queryScratch // owner; its pre-ladder buffers back the radix scratch
}

// Len reports how many ranked entries remain.
func (l *entryLadder) Len() int { return l.left }

// advance positions the cursor on the bucket holding the next item and
// sorts it if this is the first visit.
func (l *entryLadder) advance() {
	for l.pos >= int(l.starts[l.bucket+1]) {
		l.bucket++
	}
	if !l.sorted[l.bucket] {
		l.sortBucket(l.bucket)
	}
}

func (l *entryLadder) sortBucket(b int) {
	seg := l.items[l.starts[b]:l.starts[b+1]]
	if l.lazyTie {
		for i := range seg {
			seg[i].tie = coordSimilarity(l.f, l.target, seg[i].e.Coord)
		}
	}
	if len(seg) <= radixCutover {
		cmpRanked(seg)
		l.sorted[b] = true
		return
	}
	// Bound scores take few discrete values, so a quantized bucket
	// routinely holds most of the occupied entries and a comparison
	// sort degenerates into O(n log n) three-field compares. Instead:
	// staged radix over precomputed uint64 keys, one stage per
	// comparator field, refining only the equal-key runs. All three
	// buffers are dead pre-ladder scratch.
	n := len(seg)
	keys := resizeU64(&l.sc.enc, n)
	tmpE := resizeItems(&l.sc.items, n)
	tmpK := resizeU64(&l.sc.keys, n)
	fillStageKeys(seg, keys, 0)
	radixStage(seg, keys, tmpE, tmpK, 0)
	l.sorted[b] = true
}

// radixCutover is the segment length below which comparison sort beats
// the counting passes.
const radixCutover = 48

// encodeThreshold maps a float64 to a uint64 such that the natural
// float ordering becomes unsigned integer ordering — the ladder's
// bucket and radix keys.
func encodeThreshold(v float64) uint64 {
	b := math.Float64bits(v)
	if b&(1<<63) != 0 {
		return ^b
	}
	return b | 1<<63
}

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

// fillStageKeys materializes the radix key for one comparator field:
// stage 0 is the sort key, stage 1 the tie key, stage 2 the
// coordinate. Complementing the threshold encodings turns ascending
// radix order into the descending (sort, tie) order rankedBefore
// wants; adding +0.0 first collapses -0 onto +0 so equal floats share
// a key, the same equivalence CompareRanked's != tests use.
func fillStageKeys(seg []rankedEntry, keys []uint64, stage int) {
	switch stage {
	case 0:
		for i := range seg {
			keys[i] = ^encodeThreshold(seg[i].sort + 0)
		}
	case 1:
		for i := range seg {
			keys[i] = ^encodeThreshold(seg[i].tie + 0)
		}
	default:
		for i := range seg {
			keys[i] = uint64(seg[i].e.Coord)
		}
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

// radixMSD counting-scatters by the top varying 8 bits — the digit
// (k-mn)>>sh is at most 255 when sh = Len64(mx-mn)-8 — and recurses
// into the bins that still hold distinct keys.
func radixMSD(seg []rankedEntry, keys []uint64, tmpE []rankedEntry, tmpK []uint64, mn, mx uint64) {
	sh := uint(0)
	if l := bits.Len64(mx - mn); l > 8 {
		sh = uint(l - 8)
	}
	var counts [256]int32
	for _, k := range keys {
		counts[(k-mn)>>sh]++
	}
	var offs [256]int32
	sum := int32(0)
	for b := range offs {
		offs[b] = sum
		sum += counts[b]
	}
	tmpE, tmpK = tmpE[:len(seg)], tmpK[:len(seg)]
	copy(tmpE, seg)
	copy(tmpK, keys)
	for i, k := range tmpK {
		d := (k - mn) >> sh
		o := offs[d]
		offs[d] = o + 1
		seg[o], keys[o] = tmpE[i], k
	}
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
	l.left--
	return re
}

// Peek returns the next entry without consuming it.
func (l *entryLadder) Peek() rankedEntry {
	l.advance()
	return l.items[l.pos]
}

// Prefix visits up to n upcoming items without consuming them — the
// prefetch hook's lookahead. It walks raw ladder order: exact within
// sorted buckets, bucket-grouped beyond. It never forces a sort:
// prefetch lookahead must not pay for ordering the tail.
func (l *entryLadder) Prefix(n int, fn func(rankedEntry)) {
	end := l.pos + n
	if end > len(l.items) {
		end = len(l.items)
	}
	for i := l.pos; i < end; i++ {
		fn(l.items[i])
	}
}

// All visits every remaining entry in unspecified order (the batch
// engine's per-entry bound memo fill).
func (l *entryLadder) All(fn func(rankedEntry)) {
	for i := l.pos; i < len(l.items); i++ {
		fn(l.items[i])
	}
}

// Drop discards everything remaining, returning how many entries were
// dropped — the prune-break accounting.
func (l *entryLadder) Drop() int {
	n := l.left
	l.left = 0
	l.pos = len(l.items)
	l.bucket = len(l.starts) - 2
	if l.bucket < 0 {
		l.bucket = 0
	}
	return n
}

// MaxRemainingOpt returns the maximum optimistic bound among the
// remaining entries, or -Inf when none remain — the certificate
// epilogue.
func (l *entryLadder) MaxRemainingOpt() float64 {
	if l.left == 0 {
		return math.Inf(-1)
	}
	max := math.Inf(-1)
	if l.byBound {
		// Bucket key ranges descend and sort == opt, so the maximum
		// remaining bound lives in the first non-exhausted bucket.
		b := l.bucket
		for l.pos >= int(l.starts[b+1]) {
			b++
		}
		for _, re := range l.items[l.pos:l.starts[b+1]] {
			if re.opt > max {
				max = re.opt
			}
		}
		return max
	}
	for _, re := range l.items[l.pos:] {
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
	return src
}

// rankBitsliced computes every slot's bounds through the directory
// decomposition and scatters the ranked entries into the ladder.
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

	items := resizeItems(&sc.items, n)
	enc := resizeU64(&sc.enc, n)
	lazyTie := by == ByOptimisticBound
	encMin, encMax := ^uint64(0), uint64(0)
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
		k := encodeThreshold(sortKey)
		enc[s] = k
		if k < encMin {
			encMin = k
		}
		if k > encMax {
			encMax = k
		}
	}
	return buildLadder(sc, items, enc, encMin, encMax, by, f, targetCoord, lazyTie)
}

// wrapRanked turns an eagerly ranked item slice (the multi-target
// path, which averages per-target keys and has every field filled)
// into a ladder.
func (t *Table) wrapRanked(sc *queryScratch, items []rankedEntry, by SortCriterion) *entryLadder {
	enc := resizeU64(&sc.enc, len(items))
	encMin, encMax := ^uint64(0), uint64(0)
	for i := range items {
		k := encodeThreshold(items[i].sort)
		enc[i] = k
		if k < encMin {
			encMin = k
		}
		if k > encMax {
			encMax = k
		}
	}
	return buildLadder(sc, items, enc, encMin, encMax, by, nil, 0, false)
}

// buildLadder counting-sorts items into descending quantized-key
// buckets. The quantization shift keeps the bucket count at most 256;
// equal keys always share a bucket, so bucket boundaries never split a
// tie group across a sort boundary.
func buildLadder(sc *queryScratch, items []rankedEntry, enc []uint64, encMin, encMax uint64, by SortCriterion, f simfun.Func, target signature.Coord, lazyTie bool) *entryLadder {
	l := &sc.ladder
	*l = entryLadder{
		byBound: by == ByOptimisticBound,
		lazyTie: lazyTie,
		f:       f,
		target:  target,
		// items is always built in sc.items and scattered into sc.swap,
		// so sc's source buffers are dead by the time a bucket sorts.
		sc: sc,
	}
	if len(items) == 0 {
		l.items = items
		l.starts = resizeI32(&sc.starts, 2)
		l.starts[0], l.starts[1] = 0, 0
		l.sorted = resizeBools(&sc.sortedBk, 1)
		l.sorted[0] = true
		return l
	}
	shift := uint(0)
	if span := encMax - encMin; span > 0 {
		if n := bits.Len64(span) - 8; n > 0 {
			shift = uint(n)
		}
	}
	nb := int((encMax-encMin)>>shift) + 1

	starts := resizeI32(&sc.starts, nb+1)
	clear(starts)
	for _, k := range enc {
		starts[int((encMax-k)>>shift)+1]++
	}
	for b := 1; b <= nb; b++ {
		starts[b] += starts[b-1]
	}
	cur := resizeI32(&sc.cursors, nb)
	copy(cur, starts[:nb])
	swap := resizeItems(&sc.swap, len(items))
	for i, it := range items {
		b := int((encMax - enc[i]) >> shift)
		swap[cur[b]] = it
		cur[b]++
	}
	sorted := resizeBools(&sc.sortedBk, nb)
	for b := range sorted {
		sorted[b] = false
	}

	l.items = swap
	l.starts = starts
	l.sorted = sorted
	l.left = len(items)
	return l
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

func resizeBools(p *[]bool, n int) []bool {
	if cap(*p) < n {
		*p = make([]bool, n)
	}
	*p = (*p)[:n]
	return *p
}
