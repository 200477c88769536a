package sigtable

import (
	"context"
	"io"
	"sync"

	"sigtable/internal/shard"
)

// Engine is the query surface shared by the two index engines: the
// single-table *Index and the scatter-gather *ShardedIndex. Servers
// and tools that only search, mutate and persist can hold an Engine
// and accept either; engine-specific surfaces (Index.Table,
// ShardedIndex.ShardStats, Rebalance) stay on the concrete types.
//
// Both engines return byte-identical results for the same data — same
// neighbors, costs and certificates — which the test suite asserts by
// property testing; only the execution-report fields (Workers,
// PagesRead, EntriesSpeculated) reflect the engine.
type Engine interface {
	Query(ctx context.Context, target Transaction, f SimilarityFunc, opt SearchOptions) (Result, error)
	Nearest(ctx context.Context, target Transaction, f SimilarityFunc) (TID, float64, error)
	MultiQuery(ctx context.Context, targets []Transaction, f SimilarityFunc, opt SearchOptions) (Result, error)
	RangeQuery(ctx context.Context, target Transaction, constraints []RangeConstraint, opt SearchOptions) (RangeResult, error)
	BatchQuery(ctx context.Context, targets []Transaction, f SimilarityFunc, opt SearchOptions, legacy ...BatchOptions) ([]Result, error)
	Explain(target Transaction, f SimilarityFunc) Explanation

	Insert(t Transaction) TID
	InsertBatch(ts []Transaction) []TID
	Delete(id TID) bool
	Compact(parallelism int) error

	K() int
	Len() int
	Live() int
	NumEntries() int
	Signatures() [][]Item
	Items(id TID) Transaction
	BuildStats() BuildStats
	DirectoryStats() DirectoryStats
	SnapshotVersion() uint64
	OverflowStats() OverflowStats
	Validate() error
	WriteTo(w io.Writer) (int64, error)

	// Close releases disk resources: page files close. In-memory
	// engines are a no-op. Idempotent.
	Close() error
}

var (
	_ Engine = (*Index)(nil)
	_ Engine = (*ShardedIndex)(nil)
)

// ShardedIndex partitions the transactions across S sub-indexes, each
// a full signature table with its own pager store and decode cache,
// behind the same query surface as Index. Queries scatter across the
// shards concurrently and gather into results byte-identical to a
// single index over the same data; mutations publish a new per-shard
// snapshot under the owning shard's writer mutex, so an insert never
// blocks queries — on its own shard or any other. See DESIGN.md §4e
// for the architecture and the merge argument, §4i for the snapshot
// protocol.
//
// A ShardedIndex is safe for concurrent use; all coordination lives in
// the shard engine (per-shard writer mutexes plus a routing lock that
// queries never touch).
type ShardedIndex struct {
	x *shard.Index

	statsMu    sync.Mutex // guards buildStats (refreshed by Compact/Rebalance)
	buildStats BuildStats
}

// ShardStats is one shard's health snapshot: sizes, query fan-out
// count, accumulated lock wait and pages read — the backing data of
// the sigtable_shard_* metric family.
type ShardStats = shard.Stats

// NewSharded builds a sharded index over the dataset. The signature
// partition and activation threshold are mined ONCE from the full
// dataset (they must be shared by every shard for results to merge
// exactly), then global TIDs [0, n) are split into opt.Shards
// contiguous ranges, each indexed independently. 0 and 1 shards both
// build a one-shard engine. A non-empty PageFile becomes per-shard
// files PageFile+".s<i>"; the buffer-pool and decode-cache budgets are
// divided across the shards.
func NewSharded(d *Dataset, opt IndexOptions) (*ShardedIndex, error) {
	shards := opt.Shards
	if shards < 1 {
		shards = 1
	}
	part, r, stats, err := minePartition(d, &opt)
	if err != nil {
		return nil, err
	}
	x, err := shard.New(d, part, shard.Options{
		Shards:              shards,
		ActivationThreshold: r,
		PageSize:            opt.PageSize,
		PageFile:            opt.PageFile,
		BufferPoolPages:     opt.BufferPoolPages,
		DecodeCacheBytes:    opt.DecodeCacheBytes,
		BuildParallelism:    opt.BuildParallelism,
		FlushThreshold:      opt.FlushThreshold,
	})
	if err != nil {
		return nil, err
	}
	stats.coreStats(x.CoreBuildStats())
	return &ShardedIndex{x: x, buildStats: stats}, nil
}

// Shards reports the shard count.
func (sx *ShardedIndex) Shards() int { return sx.x.Shards() }

// K reports the signature cardinality.
func (sx *ShardedIndex) K() int { return sx.x.K() }

// Len reports the size of the global TID space (including tombstoned
// and compacted-away TIDs).
func (sx *ShardedIndex) Len() int { return sx.x.Len() }

// Live reports the live transactions across all shards.
func (sx *ShardedIndex) Live() int { return sx.x.Live() }

// NumEntries reports the distinct occupied supercoordinates across all
// shards — the same count a single index over the data would have.
func (sx *ShardedIndex) NumEntries() int { return sx.x.NumEntries() }

// Signatures returns the item sets of the K signatures (read-only).
func (sx *ShardedIndex) Signatures() [][]Item { return sx.x.Partition().Sets() }

// Items returns the transaction stored under the global TID, or nil if
// it is out of range or was compacted away.
func (sx *ShardedIndex) Items(id TID) Transaction { return sx.x.Items(id) }

// BuildStats reports the construction wall times: mining and
// partitioning once, the core phases summed across shard builds.
func (sx *ShardedIndex) BuildStats() BuildStats {
	sx.statsMu.Lock()
	defer sx.statsMu.Unlock()
	return sx.buildStats
}

// ShardStats snapshots every shard's counters in shard order.
func (sx *ShardedIndex) ShardStats() []ShardStats { return sx.x.Stats() }

// DirectoryStats aggregates the per-shard entry directories (slots and
// bytes summed; the ranking counters are process-wide and reported
// once).
func (sx *ShardedIndex) DirectoryStats() DirectoryStats { return sx.x.DirectoryStats() }

// Query runs the k-NN search scattered across all shards; semantics
// (contexts, certificates, errors) match Index.Query exactly, and the
// result is byte-identical to it. The scatter width is the shard
// count.
func (sx *ShardedIndex) Query(ctx context.Context, target Transaction, f SimilarityFunc, opt SearchOptions) (Result, error) {
	return sx.x.Query(ctx, target, f, opt.query())
}

// Nearest returns the single most similar transaction; see
// Index.Nearest.
func (sx *ShardedIndex) Nearest(ctx context.Context, target Transaction, f SimilarityFunc) (TID, float64, error) {
	return sx.x.Nearest(ctx, target, f)
}

// MultiQuery finds the k transactions maximizing the average
// similarity to several targets; see Index.MultiQuery.
func (sx *ShardedIndex) MultiQuery(ctx context.Context, targets []Transaction, f SimilarityFunc, opt SearchOptions) (Result, error) {
	return sx.x.MultiQuery(ctx, targets, f, opt.query())
}

// RangeQuery returns all transactions meeting every constraint; see
// Index.RangeQuery.
func (sx *ShardedIndex) RangeQuery(ctx context.Context, target Transaction, constraints []RangeConstraint, opt SearchOptions) (RangeResult, error) {
	return sx.x.RangeQuery(ctx, target, constraints, opt.ranged())
}

// BatchQuery answers one k-NN query per target over a worker pool,
// each query scatter-gathering across the shards; the calling
// conventions match Index.BatchQuery. The shared-scan engine is a
// single-table optimization — SharedScan falls back to independent
// queries here (the per-shard fan-out already amortizes I/O).
func (sx *ShardedIndex) BatchQuery(ctx context.Context, targets []Transaction, f SimilarityFunc, opt SearchOptions, legacy ...BatchOptions) ([]Result, error) {
	_, qopt, pool := batchPlan(opt, legacy)
	return sx.x.BatchQuery(ctx, targets, f, qopt.query(), pool)
}

// Explain returns the bound landscape a query for this target would
// see over the union of shard entries; see Index.Explain.
func (sx *ShardedIndex) Explain(target Transaction, f SimilarityFunc) Explanation {
	return sx.x.Explain(target, f)
}

// SnapshotVersion sums the per-shard snapshot versions — a monotone
// counter that advances with every published mutation across the
// engine.
func (sx *ShardedIndex) SnapshotVersion() uint64 { return sx.x.SnapshotVersion() }

// OverflowStats aggregates the shards' overflow-flush accounting.
func (sx *ShardedIndex) OverflowStats() OverflowStats { return sx.x.OverflowStats() }

// Insert adds a transaction, returning its global TID. Only the
// routing table and the owning shard's writer mutex are taken: queries
// — on any shard — are never blocked.
func (sx *ShardedIndex) Insert(t Transaction) TID { return sx.x.Insert(t) }

// InsertBatch adds several transactions under one routing-lock
// acquisition, publishing one new snapshot per touched shard. TIDs are
// returned in argument order.
func (sx *ShardedIndex) InsertBatch(ts []Transaction) []TID { return sx.x.InsertBatch(ts) }

// Delete tombstones the transaction at the global TID, reporting
// whether it was present and live. Only the owning shard's writer
// mutex is taken; queries are never blocked.
func (sx *ShardedIndex) Delete(id TID) bool { return sx.x.Delete(id) }

// CompactShard rebuilds one shard over its live transactions,
// compacting tombstones and flushing insert overflows. Unlike
// Index.Compact, global TIDs are PRESERVED — the shard remaps its
// local TIDs — and queries on the other shards keep running.
func (sx *ShardedIndex) CompactShard(i, parallelism int) error {
	return sx.x.CompactShard(i, parallelism)
}

// Compact compacts every shard in turn (see CompactShard). Global
// TIDs are preserved; between shards, queries proceed normally.
func (sx *ShardedIndex) Compact(parallelism int) error {
	for i := 0; i < sx.x.Shards(); i++ {
		if err := sx.x.CompactShard(i, parallelism); err != nil {
			return err
		}
	}
	sx.refreshCoreStats()
	return nil
}

// Rebalance redistributes all live transactions into equal-size
// contiguous runs and rebuilds every shard — the heavyweight fix for
// shards drifting apart after skewed inserts and deletes. Global TIDs
// are preserved; the whole index is locked for the duration.
func (sx *ShardedIndex) Rebalance(parallelism int) error {
	if err := sx.x.Rebalance(parallelism); err != nil {
		return err
	}
	sx.refreshCoreStats()
	return nil
}

// refreshCoreStats folds the rebuilt shard tables' phase times into
// buildStats; Compact and Rebalance may run concurrently with each
// other and with BuildStats readers.
func (sx *ShardedIndex) refreshCoreStats() {
	sx.statsMu.Lock()
	defer sx.statsMu.Unlock()
	sx.buildStats.coreStats(sx.x.CoreBuildStats())
}

// Validate runs each shard's consistency sweep plus the cross-shard
// routing invariants, returning the first violation.
func (sx *ShardedIndex) Validate() error { return sx.x.Validate() }

// Close releases every shard's disk resources — per-shard page files
// close. Queries must have drained. Close is idempotent; the first
// error is returned.
func (sx *ShardedIndex) Close() error { return sx.x.Close() }
