// Package core implements the paper's primary contribution: the
// signature table (§3) and the branch-and-bound similarity search that
// runs over it (§4).
//
// A Table partitions a dataset by supercoordinate — the K-bit
// activation pattern of each transaction over a signature partition of
// the item universe. Queries compute, per occupied supercoordinate,
// optimistic bounds on the match count and hamming distance to the
// target; by Lemma 2.1 these yield an upper bound on any monotone
// similarity function f(x, y), enabling best-first search with pruning.
// Construction never looks at the similarity function: f is supplied at
// query time.
package core

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sigtable/internal/pager"
	"sigtable/internal/signature"
	"sigtable/internal/txn"
)

// Entry is one occupied supercoordinate: the set of transactions whose
// activation pattern equals Coord. Transactions live either in memory
// (TIDs) or on simulated disk pages, mirroring the paper's
// memory-resident table with disk-resident transaction lists. A
// disk-mode entry may hold several page-list segments: the build writes
// one, and each overflow flush appends another holding the inserts
// accumulated since the last flush; tids is the not-yet-flushed
// overflow that scans after the segments.
type Entry struct {
	Coord signature.Coord
	Count int

	tids  []txn.TID    // memory mode, or disk-mode overflow
	lists []pager.List // disk mode: page segments in append order
}

// TIDs returns the entry's live transaction ids. In disk mode this
// decodes the pages (counting I/O); prefer scanEntry during search.
func (t *Table) TIDs(e *Entry) []txn.TID {
	out := make([]txn.TID, 0, e.Count)
	t.scanEntry(e, nil, func(id txn.TID, _ txn.Transaction) bool {
		out = append(out, id)
		return true
	})
	return out
}

// BuildOptions configures table construction.
type BuildOptions struct {
	// ActivationThreshold is the paper's r: a transaction activates a
	// signature when it shares at least r items with it. 0 selects the
	// paper's default of 1.
	ActivationThreshold int
	// PageSize, when positive, stores each entry's transaction list on
	// simulated disk pages of this many bytes and counts page I/O
	// during queries. Zero keeps transaction lists in memory (the
	// dataset itself is the backing store).
	PageSize int
	// PageFormat is deprecated: pages are always written in
	// pager.FormatV2, block-compressed frames on shared pages. Zero and
	// pager.FormatV2 are accepted; any other value fails the build.
	PageFormat pager.Format
	// PageFile, when non-empty with PageSize, backs the page store with
	// the operating-system file at that path (truncated if it exists)
	// instead of in-memory simulated pages: every page read is a real
	// positional pread. Rebuild writes its compacted pages to a fresh
	// sibling file (path + ".gN") so the stale table stays readable; the
	// old file is released by Store().Close().
	PageFile string
	// BufferPoolPages, when positive with PageSize, routes page reads
	// through a sharded clock buffer pool of this capacity.
	BufferPoolPages int
	// DecodeCacheBytes, when positive with PageSize, attaches a
	// decoded-entry cache of that many bytes to the store: repeat scans
	// of a hot entry skip page fetches and varint decoding entirely.
	// Snapshot mutations evict only the mutated entry's cached decode;
	// rebuilds invalidate globally by generation bump (see
	// pager.DecodeCache).
	DecodeCacheBytes int64
	// Parallelism bounds the goroutines used by every build phase —
	// supercoordinate computation, per-entry TID grouping and page
	// writing. 0 selects GOMAXPROCS; 1 forces a serial build. The
	// built table (entries, TID order, page layout) is identical for
	// every value.
	Parallelism int
	// FlushThreshold bounds the in-memory overflow of a disk-mode
	// entry: when a snapshot insert grows an entry's overflow to this
	// many transactions, the overflow is encoded onto fresh pages
	// appended to the entry's list. 0 selects the default
	// (DefaultFlushThreshold); negative disables flushing (overflow
	// grows until Rebuild). Ignored in memory mode.
	FlushThreshold int
}

// DefaultFlushThreshold is the overflow size at which a snapshot insert
// flushes an entry's in-memory overflow to pages when
// BuildOptions.FlushThreshold is zero.
const DefaultFlushThreshold = 128

// BuildStats reports how long each build phase took and how many
// workers ran it — the wall-time breakdown /v1/stats and the
// sigtable_build_* gauges expose.
type BuildStats struct {
	// Coords is the supercoordinate computation phase.
	Coords time.Duration
	// Group is the per-entry TID grouping (including the coordinate
	// sort).
	Group time.Duration
	// Write is the page staging + installing phase (zero in memory
	// mode).
	Write time.Duration
	// Workers is the resolved worker count the build ran with (1 =
	// serial).
	Workers int
}

// Total is the summed wall time of the core build phases.
func (s BuildStats) Total() time.Duration { return s.Coords + s.Group + s.Write }

// tableShared is the state every snapshot of one table lineage shares:
// the per-query buffer pools and the overflow counters. It lives behind
// a pointer so the copy-on-write snapshot machinery can copy the Table
// struct itself (sync.Pool must not be copied after first use).
type tableShared struct {
	// Per-query buffer pools (see scratch.go). Zero values are valid,
	// so every Table construction path (Build, ReadTable, Rebuild)
	// gets them for free.
	scratch sync.Pool // *queryScratch: ranking buffers + overlap slice
	masks   sync.Pool // *bitset.Set: all-zero target membership bitmaps

	// Overflow accounting across the lineage (monotone, so metric
	// scrapes survive snapshot swaps).
	overflowTxns atomic.Uint64 // transactions appended to disk-mode overflow
	flushes      atomic.Uint64 // overflow flushes performed
	flushNanos   atomic.Int64  // cumulative wall time spent flushing
}

// Table is the signature table index over one dataset.
//
// Entries are kept in slot order: Build numbers the coordinate-sorted
// entries 0..n-1, and every later insert of a novel coordinate appends
// the next slot — entries[s] is always the entry at directory slot s.
// (The seed kept the slice coordinate-sorted and paid an O(n) shift per
// novel insert; nothing in the query path depends on that order — entry
// visiting order is decided by the ranked comparator, which breaks
// every tie by the unique coordinate.)
//
// A Table mutated through the snapshot API (InsertSnapshot,
// DeleteSnapshot) is immutable: those methods return a derived copy
// sharing all untouched structure, and the original remains exactly as
// it was, so readers holding it need no lock. The legacy in-place
// mutators (Insert, Delete) still exist for single-writer use; the two
// protocols must not be mixed on one lineage.
type Table struct {
	part    *signature.Partition
	r       int
	data    *txn.Dataset
	entries []*Entry                  // occupied supercoordinates, slot order
	byCoord map[signature.Coord]int32 // coordinate -> slot
	slotOf  []int32                   // TID -> slot, memoized at build/insert
	store   *pager.Store              // nil in memory mode
	dir     *directory                // columnar activation index over the entries
	live    int                       // non-deleted transactions
	deleted []bool                    // tombstones by TID; nil until the first Delete
	version uint64                    // snapshot version, bumped per mutation

	flushThreshold int // resolved BuildOptions.FlushThreshold (<0 disables)

	pageFile string // base path of a file-backed store ("" = in-memory pages)
	pageGen  int    // rebuild generation, distinguishes derived file names

	buildPar   int        // requested build parallelism, reused by Rebuild
	buildStats BuildStats // phase wall times of the constructing Build

	shared *tableShared // pools + overflow counters, shared by all snapshots
}

// Version reports the table's snapshot version: 0 at build, +1 per
// mutation. Snapshots derived by InsertSnapshot/DeleteSnapshot carry
// the version of the mutation that produced them.
func (t *Table) Version() uint64 { return t.version }

// Build constructs the signature table for a dataset over a given
// signature partition. The partition's universe must match the
// dataset's.
func Build(data *txn.Dataset, part *signature.Partition, opt BuildOptions) (*Table, error) {
	if part.UniverseSize() != data.UniverseSize() {
		return nil, fmt.Errorf("core: partition universe %d != dataset universe %d",
			part.UniverseSize(), data.UniverseSize())
	}
	r := opt.ActivationThreshold
	if r == 0 {
		r = 1
	}
	if r < 1 {
		return nil, fmt.Errorf("core: activation threshold %d must be >= 1", r)
	}
	if opt.PageSize > 0 && opt.PageSize < pager.MinPageSize {
		return nil, fmt.Errorf("core: page size %d too small (minimum %d)", opt.PageSize, pager.MinPageSize)
	}
	if opt.PageFormat != 0 && opt.PageFormat != pager.FormatV2 {
		return nil, fmt.Errorf("core: unknown page format %d (only v2 is written)", int(opt.PageFormat))
	}

	t := &Table{
		part:           part,
		r:              r,
		data:           data,
		live:           data.Len(),
		buildPar:       opt.Parallelism,
		flushThreshold: opt.FlushThreshold,
		shared:         &tableShared{},
	}
	if t.flushThreshold == 0 {
		t.flushThreshold = DefaultFlushThreshold
	}

	workers := buildWorkers(data.Len(), opt.Parallelism)
	t.buildStats.Workers = workers

	start := time.Now()
	coords := computeCoords(data, part, r, workers)
	t.buildStats.Coords = time.Since(start)

	start = time.Now()
	t.entries = groupCoords(coords, workers)
	// Deterministic entry order independent of insertion: slot order
	// equals coordinate order at build time.
	sort.Slice(t.entries, func(i, j int) bool { return t.entries[i].Coord < t.entries[j].Coord })
	t.byCoord = make(map[signature.Coord]int32, len(t.entries))
	t.slotOf = make([]int32, data.Len())
	for i, e := range t.entries {
		t.byCoord[e.Coord] = int32(i)
		for _, id := range e.tids {
			t.slotOf[id] = int32(i)
		}
	}
	t.dir = newDirectory(part.K(), t.entries)
	t.buildStats.Group = time.Since(start)

	if opt.PageSize > 0 {
		start = time.Now()
		if opt.PageFile != "" {
			store, err := pager.NewFileStore(opt.PageFile, opt.PageSize)
			if err != nil {
				return nil, err
			}
			t.store = store
			t.pageFile = opt.PageFile
		} else {
			t.store = pager.NewStore(opt.PageSize)
		}
		if opt.BufferPoolPages > 0 {
			t.store.AttachPool(opt.BufferPoolPages)
		}
		if opt.DecodeCacheBytes > 0 {
			t.store.AttachDecodeCache(opt.DecodeCacheBytes)
		}
		if err := writeEntryLists(t.store, data, t.entries, workers); err != nil {
			return nil, err
		}
		t.buildStats.Write = time.Since(start)
	}
	return t, nil
}

// Close releases the backing page file, if any. A memory-mode table
// is a no-op. The table must not be queried after Close.
func (t *Table) Close() error {
	if t.store != nil {
		return t.store.Close()
	}
	return nil
}

// BuildStats reports the constructing build's phase wall times.
func (t *Table) BuildStats() BuildStats { return t.buildStats }

// Partition returns the signature partition the table was built over.
func (t *Table) Partition() *signature.Partition { return t.part }

// ActivationThreshold returns the paper's r used at build time.
func (t *Table) ActivationThreshold() int { return t.r }

// Dataset returns the indexed dataset.
func (t *Table) Dataset() *txn.Dataset { return t.data }

// K reports the signature cardinality.
func (t *Table) K() int { return t.part.K() }

// Len reports the number of indexed transactions.
func (t *Table) Len() int { return t.data.Len() }

// NumEntries reports the number of occupied supercoordinates (out of
// the conceptual 2^K table cells).
func (t *Table) NumEntries() int { return len(t.entries) }

// Entries returns the occupied entries in slot order — coordinate
// order as of the last Build/Rebuild, with post-build novel
// coordinates appended (read-only).
func (t *Table) Entries() []*Entry { return t.entries }

// Store exposes the simulated disk store, or nil in memory mode.
func (t *Table) Store() *pager.Store { return t.store }

// scanEntry visits each live transaction of an entry. Returning false
// stops early. In disk mode this reads (and counts) pages, then visits
// the in-memory overflow of post-build inserts; a non-nil reads counter
// additionally accumulates the pages this scan alone fetched, which is
// how queries account PagesRead per query even when several run
// concurrently.
//
// The overflow loops call fn directly, so a memory-mode scan allocates
// nothing; only the page paths (scanPages, scanPageStats) build
// per-call adapters for the pager.
func (t *Table) scanEntry(e *Entry, reads *atomic.Int64, fn func(id txn.TID, tr txn.Transaction) bool) {
	if t.store != nil && !t.scanPages(e, reads, fn) {
		return
	}
	for _, id := range e.tids {
		if t.IsDeleted(id) {
			continue
		}
		if !fn(id, t.data.Get(id)) {
			return
		}
	}
}

// scanPages visits the live transactions on an entry's pages,
// reporting false when fn stopped the scan.
func (t *Table) scanPages(e *Entry, reads *atomic.Int64, fn func(id txn.TID, tr txn.Transaction) bool) bool {
	stopped := false
	visit := func(id txn.TID, tr txn.Transaction) bool {
		if t.IsDeleted(id) {
			return true
		}
		if !fn(id, tr) {
			stopped = true
			return false
		}
		return true
	}
	for _, l := range e.lists {
		if err := t.store.ScanList(l, reads, visit); err != nil {
			// Lists are written by Build from validated data; a decode
			// failure means internal corruption.
			panic(fmt.Sprintf("core: corrupt entry %#x: %v", e.Coord, err))
		}
		if stopped {
			return false
		}
	}
	return true
}

// scanEntryStats visits each live transaction of an entry as its
// (match, hamming) statistics against the matcher's target — the fused
// decode-and-score path. When the table is disk-backed and the matcher
// holds a pooled target bitmap, the pager computes the statistics
// while unpacking each frame, never materializing a Transaction per
// record; otherwise (memory mode, or a universe too large for pooled
// bitmaps) transactions are materialized and scored with matchHamming.
// Every engine scores candidates through this one hook, which is what
// keeps memory and disk results byte-identical: both paths feed the
// same integer statistics to the same similarity function.
func (t *Table) scanEntryStats(e *Entry, m *matcher, reads *atomic.Int64, fn func(id txn.TID, match, hamming int) bool) {
	if t.store != nil && !t.scanPageStats(e, m, reads, fn) {
		return
	}
	for _, id := range e.tids {
		if t.IsDeleted(id) {
			continue
		}
		x, y := m.matchHamming(t.data.Get(id))
		if !fn(id, x, y) {
			return
		}
	}
}

// scanPageStats is scanPages for scanEntryStats.
func (t *Table) scanPageStats(e *Entry, m *matcher, reads *atomic.Int64, fn func(id txn.TID, match, hamming int) bool) bool {
	if m.mask == nil {
		return t.scanPages(e, reads, func(id txn.TID, tr txn.Transaction) bool {
			x, y := m.matchHamming(tr)
			return fn(id, x, y)
		})
	}
	stopped := false
	visit := func(id txn.TID, x, y int) bool {
		if t.IsDeleted(id) {
			return true
		}
		if !fn(id, x, y) {
			stopped = true
			return false
		}
		return true
	}
	for _, l := range e.lists {
		if err := t.store.ScanListStats(l, reads, m.mask, len(m.target), visit); err != nil {
			panic(fmt.Sprintf("core: corrupt entry %#x: %v", e.Coord, err))
		}
		if stopped {
			return false
		}
	}
	return true
}

// Occupancy summarizes how transactions distribute over entries.
type Occupancy struct {
	Entries     int     // occupied supercoordinates
	Cells       uint64  // 2^K conceptual cells
	MaxCount    int     // largest entry
	MeanCount   float64 // average transactions per occupied entry
	MemoryBytes int     // rough main-memory footprint of the table itself
}

// Occupancy computes distribution statistics for diagnostics and the
// memory-availability experiments.
func (t *Table) Occupancy() Occupancy {
	o := Occupancy{
		Entries: len(t.entries),
		Cells:   1 << uint(t.part.K()),
	}
	total := 0
	for _, e := range t.entries {
		total += e.Count
		if e.Count > o.MaxCount {
			o.MaxCount = e.Count
		}
	}
	if len(t.entries) > 0 {
		o.MeanCount = float64(total) / float64(len(t.entries))
	}
	// Each entry: coord (8) + count (8) + slice/list header (~24).
	o.MemoryBytes = len(t.entries) * 40
	return o
}
