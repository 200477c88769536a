// Package shard implements the sharded signature table engine: a set
// of independent sub-indexes (one core.Table each, with its own pager
// store and decode cache) behind a single query surface. Queries
// scatter across shards concurrently and gather into results that are
// byte-identical to a single-table index over the same data; mutations
// publish a new per-shard snapshot under that shard's writer mutex, so
// an insert on shard 3 never delays queries on any shard — not even
// shard 3, whose in-flight readers keep their loaded snapshot.
//
// The identity guarantee rests on three invariants:
//
//  1. Every shard is built over the SAME signature partition and
//     activation threshold, so a coordinate's optimistic bounds — and
//     hence its ranking keys — are bit-identical no matter which shard
//     computes them (core.TargetPlan).
//  2. Each shard's local→global TID mapping is strictly increasing
//     (initial build splits global TIDs contiguously; inserts append
//     the next-highest global TID), so a shard's entry scan yields its
//     slice of an entry's transactions in ascending global TID order,
//     and a K-way merge across shards reproduces the single table's
//     exact within-entry scan order.
//  3. Each shard worker streams its entries in the global visiting
//     order restricted to its shard, with their ranking keys, and the
//     coordinator merges the streams by their heads under the same
//     comparator (core.CompareRanked), so it visits coordinates in the
//     single table's order without ranking anything itself. It replays
//     the serial branch-and-bound loop over that merge — same prune
//     predicate, same budget and cancellation cadence — while shards
//     only score speculatively; every prune/offer/stop decision is
//     made exactly once, in serial order (see search.go).
package shard

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sigtable/internal/core"
	"sigtable/internal/pager"
	"sigtable/internal/signature"
	"sigtable/internal/txn"
)

// Options configures a sharded index build. The signature partition is
// supplied separately (it is mined from the full dataset, not per
// shard — invariant 1 above).
type Options struct {
	// Shards is the number of sub-indexes S (>= 1).
	Shards int
	// ActivationThreshold is the paper's r, already resolved (0 selects
	// the core default of 1; AutoActivation must be resolved by the
	// caller against the full dataset).
	ActivationThreshold int
	// PageSize, PageFile, BufferPoolPages and DecodeCacheBytes mirror
	// core.BuildOptions. Each shard gets its own store; a non-empty
	// PageFile becomes per-shard files PageFile+".s<i>", and the pool
	// and cache budgets are divided across shards.
	PageSize         int
	PageFile         string
	BufferPoolPages  int
	DecodeCacheBytes int64
	// PageFormat selects the on-page encoding for every shard store
	// (zero = the core default, the block-compressed v2 layout).
	PageFormat pager.Format
	// BuildParallelism bounds each shard build's workers (shards
	// themselves build sequentially).
	BuildParallelism int
	// PrefetchWorkers mirrors core.BuildOptions.PrefetchWorkers for
	// every shard store: 0 auto-attaches prefetch workers on
	// file-backed pooled shards, positive forces that many per shard,
	// negative disables. Workers are per shard — they serve only that
	// shard's page file — so the count is passed through undivided.
	PrefetchWorkers int
	// FlushThreshold mirrors core.BuildOptions.FlushThreshold for every
	// shard: the per-entry overflow size at which a snapshot insert
	// flushes the entry's disk-mode overflow to fresh pages (0 = the
	// core default, negative disables).
	FlushThreshold int
}

// scanStartHook, when set, is called by each scatter worker right
// after it registers its scan (its snapshot already loaded). Tests use
// it as a deterministic "this shard's scan has started" signal instead
// of polling counters; production never sets it. Atomic so installing
// a hook cannot race in-flight queries under -race.
var scanStartHook atomic.Pointer[func(*shard)]

// shardState is one shard's atomically published snapshot: an
// immutable core table plus the matching local→global TID mapping.
// Readers load the pair once and run against it lock-free; writers
// derive the next state under the shard's writer mutex (the snapshot
// mutation protocol of core/snapshot.go, with the globals slice
// extended by the same monotone shared-backing append as the table's
// own spines).
type shardState struct {
	table   *core.Table
	globals []txn.TID // local TID -> global TID, strictly increasing
}

// shard is one sub-index: the published snapshot behind a writer
// mutex. Queries never touch wmu — they load state and go.
type shard struct {
	wmu   sync.Mutex                 // serializes mutations, compactions, close
	state atomic.Pointer[shardState] // current published snapshot

	gen     int           // rebalance generation, names fresh page files (under wmu)
	retired []*core.Table // swapped-out tables, kept open for in-flight readers (under wmu)

	// Telemetry, written lock-free by query workers.
	scans    atomic.Int64 // queries that fanned out to this shard
	lockWait atomic.Int64 // nanoseconds writers spent acquiring wmu
}

func newShard(t *core.Table, globals []txn.TID) *shard {
	s := &shard{}
	s.state.Store(&shardState{table: t, globals: globals})
	return s
}

func (s *shard) load() *shardState { return s.state.Load() }

// location routes a global TID to its shard-local slot. A negative
// shard marks a TID whose transaction was compacted away.
type location struct {
	shard int32
	local txn.TID
}

// Index is the sharded engine. Safe for concurrent use: queries load
// each shard's published snapshot without locking; mutations take the
// routing lock plus the owning shard's writer mutex and publish a
// derived snapshot.
type Index struct {
	part     *signature.Partition
	r        int
	universe int
	opt      Options
	shards   []*shard

	poolPages   int   // per-shard buffer pool budget
	decodeBytes int64 // per-shard decode cache budget

	gathers sync.Pool // *gather: k-NN coordinator scratch (search.go)

	route struct {
		mu  sync.RWMutex
		loc []location // global TID -> location
	}
}

// New builds a sharded index over the dataset: global TIDs [0, n) are
// split into Shards contiguous ranges, each indexed independently over
// the shared partition. The dataset is copied into per-shard datasets;
// the argument is not retained.
func New(data *txn.Dataset, part *signature.Partition, opt Options) (*Index, error) {
	if opt.Shards < 1 {
		return nil, fmt.Errorf("shard: shard count %d must be >= 1", opt.Shards)
	}
	if part.UniverseSize() != data.UniverseSize() {
		return nil, fmt.Errorf("shard: partition universe %d != dataset universe %d",
			part.UniverseSize(), data.UniverseSize())
	}
	r := opt.ActivationThreshold
	if r == 0 {
		r = 1
	}
	if r < 1 {
		return nil, fmt.Errorf("shard: activation threshold %d must be >= 1", r)
	}

	x := &Index{
		part:     part,
		r:        r,
		universe: data.UniverseSize(),
		opt:      opt,
		shards:   make([]*shard, opt.Shards),
	}
	x.poolPages, x.decodeBytes = splitBudget(opt.BufferPoolPages, opt.DecodeCacheBytes, opt.Shards)

	n := data.Len()
	S := opt.Shards
	x.route.loc = make([]location, n)
	lo := 0
	for i := range x.shards {
		count := n / S
		if i < n%S {
			count++
		}
		local := txn.NewDataset(x.universe)
		globals := make([]txn.TID, 0, count)
		for g := lo; g < lo+count; g++ {
			local.Append(data.Get(txn.TID(g)))
			globals = append(globals, txn.TID(g))
			x.route.loc[g] = location{shard: int32(i), local: txn.TID(g - lo)}
		}
		lo += count

		table, err := core.Build(local, part, x.buildOptions(i, 0))
		if err != nil {
			return nil, fmt.Errorf("shard: building shard %d: %w", i, err)
		}
		x.shards[i] = newShard(table, globals)
	}
	return x, nil
}

// splitBudget divides the pool and cache budgets evenly across shards,
// keeping at least one page / the full residue when the division
// underflows.
func splitBudget(pages int, bytes int64, s int) (int, int64) {
	pp, db := pages/s, bytes/int64(s)
	if pages > 0 && pp < 1 {
		pp = 1
	}
	if bytes > 0 && db < 1 {
		db = 1
	}
	return pp, db
}

// buildOptions is the per-shard core build configuration; gen > 0
// names a fresh rebalance-generation page file.
func (x *Index) buildOptions(i, gen int) core.BuildOptions {
	o := core.BuildOptions{
		ActivationThreshold: x.r,
		PageSize:            x.opt.PageSize,
		PageFormat:          x.opt.PageFormat,
		BufferPoolPages:     x.poolPages,
		DecodeCacheBytes:    x.decodeBytes,
		Parallelism:         x.opt.BuildParallelism,
		PrefetchWorkers:     x.opt.PrefetchWorkers,
		FlushThreshold:      x.opt.FlushThreshold,
	}
	if x.opt.PageFile != "" {
		o.PageFile = fmt.Sprintf("%s.s%d", x.opt.PageFile, i)
		if gen > 0 {
			o.PageFile = fmt.Sprintf("%s.r%d", o.PageFile, gen)
		}
	}
	return o
}

// Shards reports the shard count.
func (x *Index) Shards() int { return len(x.shards) }

// Partition returns the shared signature partition.
func (x *Index) Partition() *signature.Partition { return x.part }

// ActivationThreshold returns the paper's r shared by every shard.
func (x *Index) ActivationThreshold() int { return x.r }

// K reports the signature cardinality.
func (x *Index) K() int { return x.part.K() }

// Len reports the size of the global TID space (including tombstoned
// and compacted-away TIDs).
func (x *Index) Len() int {
	x.route.mu.RLock()
	defer x.route.mu.RUnlock()
	return len(x.route.loc)
}

// Live reports the number of live transactions across all shards.
func (x *Index) Live() int {
	total := 0
	for _, s := range x.shards {
		total += s.load().table.Live()
	}
	return total
}

// NumEntries reports the number of distinct occupied supercoordinates
// across all shards — the same count a single table over the union
// would have.
func (x *Index) NumEntries() int {
	seen := make(map[signature.Coord]struct{})
	for _, s := range x.shards {
		for _, e := range s.load().table.EntrySummaries(nil) {
			seen[e.Coord] = struct{}{}
		}
	}
	return len(seen)
}

// SnapshotVersion sums the per-shard snapshot versions — a counter
// that advances on every published mutation or compaction anywhere in
// the index, the sharded analogue of a single table's Version.
func (x *Index) SnapshotVersion() uint64 {
	var v uint64
	for _, s := range x.shards {
		v += s.load().table.Version()
	}
	return v
}

// OverflowStats aggregates the per-shard overflow-flush accounting.
func (x *Index) OverflowStats() core.OverflowStats {
	var agg core.OverflowStats
	for _, s := range x.shards {
		st := s.load().table.OverflowStats()
		agg.Transactions += st.Transactions
		agg.Pending += st.Pending
		agg.Flushes += st.Flushes
		agg.FlushSeconds += st.FlushSeconds
	}
	return agg
}

// Items returns the transaction stored under the global TID, or nil if
// the TID is out of range or was compacted away. The routing lock
// keeps the location and the shard snapshot mutually consistent
// (CompactShard remaps both under the exclusive routing lock).
func (x *Index) Items(g txn.TID) txn.Transaction {
	x.route.mu.RLock()
	defer x.route.mu.RUnlock()
	if int(g) >= len(x.route.loc) {
		return nil
	}
	l := x.route.loc[g]
	if l.shard < 0 {
		return nil
	}
	return x.shards[l.shard].load().table.Dataset().Get(l.local)
}

// Insert adds a transaction, returning its global TID. The new TID is
// the highest ever assigned, and it routes to shard TID mod S, so each
// shard's local→global mapping stays strictly increasing (invariant 2).
// Only the routing lock and the owning shard's writer mutex are held,
// and queries never take either: the insert derives a snapshot from
// the shard's current one and publishes it, disturbing no reader
// anywhere.
func (x *Index) Insert(tr txn.Transaction) txn.TID {
	x.route.mu.Lock()
	defer x.route.mu.Unlock()
	g := txn.TID(len(x.route.loc))
	i := int(g) % len(x.shards)
	s := x.shards[i]

	t0 := time.Now()
	s.wmu.Lock()
	s.lockWait.Add(time.Since(t0).Nanoseconds())
	st := s.load()
	nt, local := st.table.InsertSnapshot(tr)
	// Like the table's own spines, globals grows only at an index no
	// reader of an older snapshot addresses, so the backing array may
	// be shared.
	s.state.Store(&shardState{table: nt, globals: append(st.globals, g)})
	s.wmu.Unlock()

	x.route.loc = append(x.route.loc, location{shard: int32(i), local: local})
	return g
}

// InsertBatch adds several transactions under one routing-lock
// acquisition, publishing one snapshot per owning shard. TIDs are
// returned in argument order.
func (x *Index) InsertBatch(trs []txn.Transaction) []txn.TID {
	x.route.mu.Lock()
	defer x.route.mu.Unlock()
	S := len(x.shards)
	base := len(x.route.loc)
	ids := make([]txn.TID, len(trs))
	locs := make([]location, len(trs))
	perShard := make([][]int, S)
	for j := range trs {
		g := base + j
		ids[j] = txn.TID(g)
		perShard[g%S] = append(perShard[g%S], j)
	}
	for i, s := range x.shards {
		if len(perShard[i]) == 0 {
			continue
		}
		t0 := time.Now()
		s.wmu.Lock()
		s.lockWait.Add(time.Since(t0).Nanoseconds())
		st := s.load()
		table, globals := st.table, st.globals
		for _, j := range perShard[i] { // ascending j ⇒ ascending global TID
			var local txn.TID
			table, local = table.InsertSnapshot(trs[j])
			globals = append(globals, ids[j])
			locs[j] = location{shard: int32(i), local: local}
		}
		s.state.Store(&shardState{table: table, globals: globals})
		s.wmu.Unlock()
	}
	x.route.loc = append(x.route.loc, locs...)
	return ids
}

// Delete tombstones the transaction at the global TID, reporting
// whether it was present and live. Only the owning shard's writer
// mutex is taken.
func (x *Index) Delete(g txn.TID) bool {
	x.route.mu.Lock()
	defer x.route.mu.Unlock()
	if int(g) >= len(x.route.loc) {
		return false
	}
	l := x.route.loc[g]
	if l.shard < 0 {
		return false
	}
	s := x.shards[l.shard]
	t0 := time.Now()
	s.wmu.Lock()
	s.lockWait.Add(time.Since(t0).Nanoseconds())
	defer s.wmu.Unlock()
	st := s.load()
	nt, ok := st.table.DeleteSnapshot(l.local)
	if ok {
		s.state.Store(&shardState{table: nt, globals: st.globals})
	}
	return ok
}

// CompactShard rebuilds one shard in place over its live transactions,
// compacting tombstones and flushing insert overflows to pages, with
// an explicit build parallelism (0 = GOMAXPROCS). Unlike a single
// index's Compact, global TIDs are PRESERVED: the shard layer remaps
// its local TIDs and the rest of the index — and every query result —
// is unaffected. Only the routing lock and this shard's writer mutex
// are held; queries everywhere keep running, including readers mid-
// scan on the old snapshot, which is retired (kept open) rather than
// closed until Close.
func (x *Index) CompactShard(i, parallelism int) error {
	if i < 0 || i >= len(x.shards) {
		return fmt.Errorf("shard: shard %d out of range [0, %d)", i, len(x.shards))
	}
	x.route.mu.Lock()
	defer x.route.mu.Unlock()
	s := x.shards[i]
	t0 := time.Now()
	s.wmu.Lock()
	s.lockWait.Add(time.Since(t0).Nanoseconds())
	defer s.wmu.Unlock()

	st := s.load()
	old := st.table
	nt, err := old.RebuildParallel(parallelism)
	if err != nil {
		return fmt.Errorf("shard: compacting shard %d: %w", i, err)
	}
	newGlobals := make([]txn.TID, 0, nt.Len())
	for local := 0; local < old.Len(); local++ {
		g := st.globals[local]
		if old.IsDeleted(txn.TID(local)) {
			x.route.loc[g] = location{shard: -1}
			continue
		}
		x.route.loc[g] = location{shard: int32(i), local: txn.TID(len(newGlobals))}
		newGlobals = append(newGlobals, g)
	}
	x.retire(s, old)
	s.state.Store(&shardState{table: nt, globals: newGlobals})
	return nil
}

// retire takes a replaced table out of service without closing it:
// prefetch workers stop (racing queries simply issue their own reads)
// but the page file stays open for readers still scanning the old
// snapshot. Close releases the retired tables. Caller holds s.wmu.
func (x *Index) retire(s *shard, old *core.Table) {
	if store := old.Store(); store != nil {
		store.StopPrefetcher()
	}
	s.retired = append(s.retired, old)
}

// Rebalance redistributes all live transactions into S contiguous
// equal-size runs (in global TID order) and rebuilds every shard —
// the heavyweight fix for shards drifting apart after skewed inserts
// and deletes. Global TIDs are preserved. It holds the routing lock
// plus every shard's writer mutex for the duration — other writers
// queue, but queries keep running on the old snapshots throughout; all
// new tables are built before any state is swapped, so a build error
// leaves the index untouched.
func (x *Index) Rebalance(parallelism int) error {
	x.route.mu.Lock()
	defer x.route.mu.Unlock()
	for _, s := range x.shards {
		s.wmu.Lock()
	}
	defer func() {
		for i := len(x.shards) - 1; i >= 0; i-- {
			x.shards[i].wmu.Unlock()
		}
	}()

	type liveTxn struct {
		g  txn.TID
		tr txn.Transaction
	}
	var all []liveTxn
	states := make([]*shardState, len(x.shards))
	for i, s := range x.shards {
		states[i] = s.load()
		t := states[i].table
		for local := 0; local < t.Len(); local++ {
			if t.IsDeleted(txn.TID(local)) {
				continue
			}
			all = append(all, liveTxn{g: states[i].globals[local], tr: t.Dataset().Get(txn.TID(local))})
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].g < all[j].g })

	S := len(x.shards)
	savedPar := x.opt.BuildParallelism
	x.opt.BuildParallelism = parallelism
	defer func() { x.opt.BuildParallelism = savedPar }()

	newTables := make([]*core.Table, S)
	newGlobals := make([][]txn.TID, S)
	lo := 0
	for i := range x.shards {
		count := len(all) / S
		if i < len(all)%S {
			count++
		}
		seg := all[lo : lo+count]
		lo += count
		local := txn.NewDataset(x.universe)
		globals := make([]txn.TID, 0, count)
		for _, lt := range seg {
			local.Append(lt.tr)
			globals = append(globals, lt.g)
		}
		nt, err := core.Build(local, x.part, x.buildOptions(i, x.shards[i].gen+1))
		if err != nil {
			return fmt.Errorf("shard: rebalancing shard %d: %w", i, err)
		}
		newTables[i] = nt
		newGlobals[i] = globals
	}

	// Commit: every build succeeded, publish the new snapshots under
	// the writer mutexes.
	for g := range x.route.loc {
		x.route.loc[g] = location{shard: -1}
	}
	for i, s := range x.shards {
		for local, g := range newGlobals[i] {
			x.route.loc[g] = location{shard: int32(i), local: txn.TID(local)}
		}
		x.retire(s, states[i].table)
		s.state.Store(&shardState{table: newTables[i], globals: newGlobals[i]})
		s.gen++
	}
	return nil
}

// Close stops every shard store's prefetch workers and releases the
// backing page files, if any — current snapshots and tables retired by
// CompactShard/Rebalance alike. The index must not be queried after
// Close; the first error is returned but every shard is closed.
func (x *Index) Close() error {
	x.route.mu.Lock()
	defer x.route.mu.Unlock()
	var first error
	for i, s := range x.shards {
		s.wmu.Lock()
		if err := s.load().table.Close(); err != nil && first == nil {
			first = fmt.Errorf("shard: closing shard %d: %w", i, err)
		}
		for _, t := range s.retired {
			if err := t.Close(); err != nil && first == nil {
				first = fmt.Errorf("shard: closing shard %d retired table: %w", i, err)
			}
		}
		s.retired = nil
		s.wmu.Unlock()
	}
	return first
}

// Stats is one shard's health snapshot, the backing data of the
// sigtable_shard_* metric family.
type Stats struct {
	// Shard is the shard number (the metric label).
	Shard int
	// Live and Len are the shard's live and total (including
	// tombstoned) transaction counts; Entries its occupied
	// supercoordinates.
	Live    int
	Len     int
	Entries int
	// Scans counts queries that fanned out to this shard.
	Scans int64
	// LockWaitNanos accumulates time writers spent acquiring this
	// shard's writer mutex, the write-contention signal (queries take
	// no lock and contribute nothing here).
	LockWaitNanos int64
	// PagesRead is the shard store's cumulative page fetch count (disk
	// mode only).
	PagesRead int64
}

// Stats snapshots every shard's counters.
func (x *Index) Stats() []Stats {
	out := make([]Stats, len(x.shards))
	for i, s := range x.shards {
		t := s.load().table
		st := Stats{
			Shard:         i,
			Live:          t.Live(),
			Len:           t.Len(),
			Entries:       t.NumEntries(),
			Scans:         s.scans.Load(),
			LockWaitNanos: s.lockWait.Load(),
		}
		if store := t.Store(); store != nil {
			st.PagesRead = store.Stats().Reads
		}
		out[i] = st
	}
	return out
}

// DirectoryStats aggregates the per-shard entry directories: slot and
// byte totals summed across shards, the process-wide ranking counters
// reported once (they are package-level in core, not per table).
func (x *Index) DirectoryStats() core.DirectoryStats {
	var agg core.DirectoryStats
	for _, s := range x.shards {
		st := s.load().table.DirectoryStats()
		agg.Slots += st.Slots
		agg.Bytes += st.Bytes
		agg.Rebuilds, agg.Ranks, agg.RankSeconds = st.Rebuilds, st.Ranks, st.RankSeconds
	}
	return agg
}

// Validate runs each shard's consistency sweep plus the cross-shard
// routing invariants (monotone local→global mappings, round-trip
// agreement between the routing table and the shards), returning the
// first violation.
func (x *Index) Validate() error {
	// The routing lock excludes mutations, so each shard's loaded
	// snapshot is THE current one and stays consistent with route.loc
	// for the whole sweep.
	x.route.mu.RLock()
	defer x.route.mu.RUnlock()

	routed := 0
	for i, s := range x.shards {
		st := s.load()
		if err := st.table.Validate(); err != nil {
			return fmt.Errorf("shard: shard %d: %w", i, err)
		}
		if len(st.globals) != st.table.Len() {
			return fmt.Errorf("shard: shard %d maps %d globals for %d transactions", i, len(st.globals), st.table.Len())
		}
		for local, g := range st.globals {
			if local > 0 && st.globals[local-1] >= g {
				return fmt.Errorf("shard: shard %d global mapping not increasing at local %d", i, local)
			}
			if int(g) >= len(x.route.loc) {
				return fmt.Errorf("shard: shard %d maps local %d to unknown global %d", i, local, g)
			}
			if l := x.route.loc[g]; l.shard != int32(i) || l.local != txn.TID(local) {
				return fmt.Errorf("shard: routing disagrees for global %d: shard %d local %d vs route {%d %d}",
					g, i, local, l.shard, l.local)
			}
		}
		routed += len(st.globals)
	}
	present := 0
	for _, l := range x.route.loc {
		if l.shard >= 0 {
			present++
		}
	}
	if present != routed {
		return fmt.Errorf("shard: routing table has %d routed TIDs, shards hold %d", present, routed)
	}
	return nil
}

// CoreBuildStats aggregates the per-shard build phase times (summed;
// workers is the max).
func (x *Index) CoreBuildStats() core.BuildStats {
	var agg core.BuildStats
	for _, s := range x.shards {
		bs := s.load().table.BuildStats()
		agg.Coords += bs.Coords
		agg.Group += bs.Group
		agg.Write += bs.Write
		if bs.Workers > agg.Workers {
			agg.Workers = bs.Workers
		}
	}
	return agg
}
