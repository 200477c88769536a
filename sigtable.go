package sigtable

import (
	"context"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"sigtable/internal/cluster"
	"sigtable/internal/core"
	"sigtable/internal/gen"
	"sigtable/internal/mining"
	"sigtable/internal/pager"
	"sigtable/internal/signature"
	"sigtable/internal/simfun"
	"sigtable/internal/topk"
	"sigtable/internal/txn"
)

// Re-exported data model. Items are dense integers in
// {0, ..., UniverseSize-1}; a Transaction is a strictly increasing item
// slice; a Dataset is an in-memory transaction collection addressed by
// TID.
type (
	// Item identifies a catalog item.
	Item = txn.Item
	// TID identifies a transaction within a Dataset.
	TID = txn.TID
	// Transaction is a sorted set of items bought together.
	Transaction = txn.Transaction
	// Dataset is a collection of transactions over a fixed universe.
	Dataset = txn.Dataset
)

// NewTransaction builds a Transaction from items in any order.
func NewTransaction(items ...Item) Transaction { return txn.New(items...) }

// NewDataset creates an empty dataset over a universe of the given
// size.
func NewDataset(universeSize int) *Dataset { return txn.NewDataset(universeSize) }

// ReadDataset decodes a dataset from its binary encoding (see
// (*Dataset).WriteTo).
func ReadDataset(r io.Reader) (*Dataset, error) { return txn.ReadDataset(r) }

// ReadFIMI parses the standard FIMI text format (one transaction per
// line, space-separated item ids), the distribution format of public
// market-basket datasets. universeSize 0 infers the universe from the
// data.
func ReadFIMI(r io.Reader, universeSize int) (*Dataset, error) {
	return txn.ReadFIMI(r, universeSize)
}

// Match and Hamming are the two set statistics every similarity
// function is defined over.
func Match(a, b Transaction) int   { return txn.Match(a, b) }
func Hamming(a, b Transaction) int { return txn.Hamming(a, b) }

// Similarity functions (see internal/simfun for the monotonicity
// contract each satisfies).
type (
	// SimilarityFunc scores transaction similarity from the match count
	// x and hamming distance y; higher is more similar. It must be
	// non-decreasing in x and non-increasing in y.
	SimilarityFunc = simfun.Func
	// HammingSimilarity ranks by hamming distance (maximization form
	// 1/(1+y)).
	HammingSimilarity = simfun.Hamming
	// MatchSimilarity ranks by match count.
	MatchSimilarity = simfun.Match
	// MatchHammingRatio ranks by x/(1+y).
	MatchHammingRatio = simfun.MatchHammingRatio
	// Cosine ranks by the angle cosine; it is bound to each query
	// target automatically.
	Cosine = simfun.Cosine
	// Jaccard ranks by |S∩T| / |S∪T|.
	Jaccard = simfun.Jaccard
	// Dice ranks by the Sørensen–Dice coefficient.
	Dice = simfun.Dice
)

// Linear is the combinator f(x, y) = A·x − B·y with A, B >= 0.
type Linear = simfun.Linear

// NewLinear validates the weights and returns the Linear combinator.
func NewLinear(a, b float64) (Linear, error) { return simfun.NewLinear(a, b) }

// SimilarityByName resolves a built-in similarity function from its CLI
// name: "hamming", "match", "match/hamming" (or "ratio"), "cosine",
// "jaccard", "dice".
func SimilarityByName(name string) (SimilarityFunc, error) { return simfun.ByName(name) }

// CheckMonotone verifies a custom similarity function satisfies the
// index's monotonicity contract on the grid [0,maxX]×[0,maxY].
func CheckMonotone(f SimilarityFunc, maxX, maxY int) error {
	return simfun.CheckMonotone(f, maxX, maxY)
}

// Query machinery re-exports. Options live in SearchOptions (see
// options.go).
type (
	// Result is a query answer with cost accounting.
	Result = core.Result
	// Candidate pairs a TID with its similarity value.
	Candidate = topk.Candidate
	// RangeConstraint is one (function, threshold) conjunct of a range
	// query.
	RangeConstraint = core.RangeConstraint
	// RangeResult reports range query matches and cost.
	RangeResult = core.RangeResult
	// SortCriterion selects the entry visiting order.
	SortCriterion = core.SortCriterion
)

// Entry visiting orders.
const (
	// ByOptimisticBound visits entries in decreasing bound order (the
	// paper's default).
	ByOptimisticBound = core.ByOptimisticBound
	// ByCoordSimilarity orders entries by supercoordinate similarity.
	ByCoordSimilarity = core.ByCoordSimilarity
)

// GeneratorConfig parameterizes the synthetic market-basket generator
// (the paper's §5 data source); zero fields take the paper's defaults
// (N=1000 items, L=2000 itemsets, T=10, I=6).
type GeneratorConfig = gen.Config

// Generator produces synthetic transactions.
type Generator = gen.Generator

// NewGenerator creates a synthetic data generator.
func NewGenerator(cfg GeneratorConfig) (*Generator, error) { return gen.New(cfg) }

// AutoActivation, as IndexOptions.ActivationThreshold, derives the
// activation threshold from the data: the smallest r keeping the
// average number of activated signatures at or below K/2 (the paper's
// footnote 4 observes that denser data wants higher thresholds).
const AutoActivation = -1

// PageFormat selects the on-page encoding for disk-mode indexes. The
// zero value means "the current default" (PageFormatV2).
type PageFormat int

const (
	// PageFormatV1 is the original layout: each transaction list owns a
	// private page chain of varint-encoded records.
	PageFormatV1 PageFormat = PageFormat(pager.FormatV1)
	// PageFormatV2 is the block-compressed layout: lists are staged as
	// fixed-size frames (delta + bit-packed TIDs and item gaps) and
	// packed back to back across shared pages.
	PageFormatV2 PageFormat = PageFormat(pager.FormatV2)
)

// pagerFormat resolves a public PageFormat to the internal pager
// format, defaulting the zero value to v2.
func (pf PageFormat) pagerFormat() (pager.Format, error) {
	switch pf {
	case 0, PageFormatV2:
		return pager.FormatV2, nil
	case PageFormatV1:
		return pager.FormatV1, nil
	default:
		return 0, fmt.Errorf("sigtable: unknown page format %d", pf)
	}
}

// IndexOptions configures BuildIndex.
type IndexOptions struct {
	// SignatureCardinality is K, the number of signatures the universe
	// is partitioned into; the table has up to 2^K entries. Default 15
	// (the paper's largest evaluated value; pick as large as memory
	// allows).
	SignatureCardinality int
	// ActivationThreshold is the paper's r (default 1). Larger values
	// help for dense data (long transactions); AutoActivation picks a
	// threshold from the data.
	ActivationThreshold int
	// MinPairSupport is the minimum support for a 2-itemset to
	// contribute an edge to the item-correlation graph used by
	// signature construction. Default 0.0005.
	MinPairSupport float64
	// SupportSample caps the transactions sampled for support counting
	// (0 = min(n, 50000)). Supports only steer the partition; a sample
	// suffices.
	SupportSample int
	// Partition, when non-nil, supplies the signature item sets
	// directly and skips mining/clustering (used by ablations and
	// tests). Sets must partition the universe.
	Partition [][]Item
	// PageSize, when positive, stores transaction lists on simulated
	// disk pages of this many bytes and accounts page I/O per query.
	PageSize int
	// PageFile, when non-empty with PageSize, backs the page store with
	// the operating-system file at that path (truncated if it exists)
	// instead of in-memory simulated pages, making every page read a
	// real positional pread. Compact rebuilds into a fresh sibling file
	// (path + ".gN") so in-flight queries on the old table stay valid.
	PageFile string
	// BufferPoolPages, with PageSize, adds a sharded clock-sweep
	// buffer pool of this capacity.
	BufferPoolPages int
	// DecodeCacheBytes, with PageSize, adds a decoded-entry cache of
	// that many bytes: repeat scans of a hot entry's transaction list
	// skip page fetches and varint decoding entirely. Insert, Delete
	// and Compact invalidate it by generation bump, so cached scans can
	// never serve stale data.
	DecodeCacheBytes int64
	// PageFormat selects the on-page encoding used with PageSize:
	// PageFormatV2 (the default) block-compresses records into
	// shared-page frames with delta + bit-packed TIDs and item gaps,
	// while PageFormatV1 keeps the original one-list-per-page-chain
	// varint layout. Queries return identical results either way; v2
	// writes far fewer pages and scans through a fused decode-and-score
	// kernel. Ignored in memory mode (PageSize == 0).
	PageFormat PageFormat
	// BuildParallelism bounds the goroutines used by the build
	// pipeline: support counting, supercoordinate computation, TID
	// grouping and page writing. 0 selects GOMAXPROCS; 1 forces a
	// serial build. The resulting index is identical for every value.
	BuildParallelism int
	// Shards selects the sharded engine: NewSharded partitions the
	// transactions across this many sub-indexes (0 and 1 both mean a
	// single shard). BuildIndex rejects values above 1 — a sharded
	// index is built with NewSharded, which returns the engine type
	// that can answer for it.
	Shards int
	// PrefetchWorkers controls the store's async prefetch pipeline,
	// which overlaps page I/O with scoring by fetching the entry lists
	// a search will visit next (the ranked entry queue names them)
	// into the buffer pool ahead of the scan. It requires
	// BufferPoolPages. 0 auto-attaches 2 workers when the store is
	// file-backed and pooled; a positive count attaches that many
	// workers on any pooled store; a negative value disables
	// prefetching. Per-query readahead is tuned (or disabled) with
	// SearchOptions.ReadaheadDepth. With the sharded engine the count
	// applies per shard. Results are identical at every setting.
	PrefetchWorkers int
	// FlushThreshold sets the per-entry overflow size at which a
	// disk-mode Insert flushes the entry's in-memory overflow to fresh
	// pages appended to its list (amortizing insert cost and keeping
	// memory bounded without a full Compact). 0 selects the core
	// default (128); a negative value disables flushing, restoring the
	// grow-until-Compact behavior. Ignored in memory mode. With the
	// sharded engine the threshold applies per shard. Results are
	// identical at every setting.
	FlushThreshold int
}

func (o IndexOptions) withDefaults(n int) IndexOptions {
	if o.SignatureCardinality == 0 {
		o.SignatureCardinality = 15
	}
	if o.ActivationThreshold == 0 {
		o.ActivationThreshold = 1
	}
	if o.MinPairSupport == 0 {
		o.MinPairSupport = 0.0005
	}
	if o.SupportSample == 0 {
		o.SupportSample = 50000
		if n < o.SupportSample {
			o.SupportSample = n
		}
	}
	return o
}

// Index is the signature table with its construction metadata.
//
// An Index is safe for concurrent use, and queries never take a lock:
// each search loads the atomically published table snapshot and runs
// against that immutable version for its whole duration. Mutations (Insert,
// Delete, Compact) serialize behind a small writer mutex, derive the
// next snapshot by copy-on-write — sharing all untouched structure —
// and publish it with one atomic store; they never wait for queries,
// and queries never wait for them. A query that overlaps a mutation
// sees either entirely the old version or entirely the new one, never
// a mix (snapshot isolation).
type Index struct {
	wmu     sync.Mutex                 // serializes mutations, Compact and Close
	table   atomic.Pointer[core.Table] // current published snapshot
	retired []*core.Table              // tables swapped out by Compact, kept open for in-flight readers (under wmu)

	statsMu    sync.Mutex // guards buildStats (refreshed by Compact)
	buildStats BuildStats
}

// newIndex wraps a built or loaded core table in the public Index.
func newIndex(t *core.Table, stats BuildStats) *Index {
	ix := &Index{buildStats: stats}
	ix.table.Store(t)
	return ix
}

// load returns the current published table snapshot. Callers run
// against the returned table without further synchronization — it is
// immutable (the snapshot mutation protocol never modifies a published
// version).
func (ix *Index) load() *core.Table { return ix.table.Load() }

// BuildStats is the wall-time breakdown of index construction, phase
// by phase. Mining and Partition run once per BuildIndex; the core
// phases (Coords, Group, Write) also rerun on every Compact or
// Rebuild, which refresh those fields.
type BuildStats struct {
	// Mining is the sampled 2-itemset support counting phase.
	Mining time.Duration
	// Partition is the signature clustering phase.
	Partition time.Duration
	// Coords is the supercoordinate computation phase.
	Coords time.Duration
	// Group is the per-entry TID grouping phase.
	Group time.Duration
	// Write is the page staging and installing phase (zero in memory
	// mode).
	Write time.Duration
	// Workers is the resolved build worker count (1 = serial).
	Workers int
}

// Total is the summed wall time across all build phases.
func (s BuildStats) Total() time.Duration {
	return s.Mining + s.Partition + s.Coords + s.Group + s.Write
}

// coreStats folds a core build's phase times into the index stats.
func (s *BuildStats) coreStats(cs core.BuildStats) {
	s.Coords, s.Group, s.Write, s.Workers = cs.Coords, cs.Group, cs.Write, cs.Workers
}

// BuildStats reports the construction wall times of the most recent
// build (initial BuildIndex, refreshed by Compact).
func (ix *Index) BuildStats() BuildStats {
	ix.statsMu.Lock()
	defer ix.statsMu.Unlock()
	return ix.buildStats
}

// BuildIndex constructs a signature table over the dataset:
//
//  1. sample the data to estimate item and 2-itemset supports,
//  2. partition the universe into K signatures by single-linkage
//     clustering with critical-mass peeling (correlated items group
//     together),
//  3. assign every transaction to its supercoordinate's entry.
//
// The similarity function is NOT an input: it is chosen per query.
func BuildIndex(d *Dataset, opt IndexOptions) (*Index, error) {
	if opt.Shards > 1 {
		return nil, fmt.Errorf("sigtable: BuildIndex builds a single-shard index; use NewSharded for %d shards", opt.Shards)
	}
	part, r, stats, err := minePartition(d, &opt)
	if err != nil {
		return nil, err
	}
	format, err := opt.PageFormat.pagerFormat()
	if err != nil {
		return nil, err
	}
	table, err := core.Build(d, part, core.BuildOptions{
		ActivationThreshold: r,
		PageSize:            opt.PageSize,
		PageFile:            opt.PageFile,
		BufferPoolPages:     opt.BufferPoolPages,
		DecodeCacheBytes:    opt.DecodeCacheBytes,
		PageFormat:          format,
		Parallelism:         opt.BuildParallelism,
		PrefetchWorkers:     opt.PrefetchWorkers,
		FlushThreshold:      opt.FlushThreshold,
	})
	if err != nil {
		return nil, err
	}
	stats.coreStats(table.BuildStats())
	return newIndex(table, stats), nil
}

// minePartition runs the data-dependent half of a build — support
// mining, signature clustering, activation-threshold resolution —
// shared by BuildIndex and NewSharded. It normalizes opt in place and
// returns the partition, the resolved threshold and the mining phase
// times.
func minePartition(d *Dataset, opt *IndexOptions) (*signature.Partition, int, BuildStats, error) {
	var stats BuildStats
	if d.Len() == 0 {
		return nil, 0, stats, fmt.Errorf("sigtable: cannot index an empty dataset")
	}
	*opt = opt.withDefaults(d.Len())

	var sets [][]Item
	if opt.Partition != nil {
		sets = opt.Partition
	} else {
		start := time.Now()
		counts := mining.Count(d, mining.CountOptions{
			MaxSample:   opt.SupportSample,
			CountPairs:  true,
			Parallelism: opt.BuildParallelism,
		})
		pairs := counts.FrequentPairs(opt.MinPairSupport)
		stats.Mining = time.Since(start)

		start = time.Now()
		var err error
		sets, err = cluster.Exact(counts.ItemSupports(), pairs, opt.SignatureCardinality)
		if err != nil {
			return nil, 0, stats, fmt.Errorf("sigtable: partitioning items: %w", err)
		}
		stats.Partition = time.Since(start)
	}

	part, err := signature.NewPartition(d.UniverseSize(), sets)
	if err != nil {
		return nil, 0, stats, fmt.Errorf("sigtable: invalid signature partition: %w", err)
	}
	r := opt.ActivationThreshold
	if r == AutoActivation {
		r = core.RecommendActivation(d, part, opt.SupportSample)
	}
	return part, r, stats, nil
}

// K reports the signature cardinality.
func (ix *Index) K() int {
	return ix.load().K()
}

// Len reports the number of indexed transactions.
func (ix *Index) Len() int {
	return ix.load().Len()
}

// NumEntries reports the occupied supercoordinates.
func (ix *Index) NumEntries() int {
	return ix.load().NumEntries()
}

// SnapshotVersion reports the version of the currently published table
// snapshot: 0 as built, advancing by one on every published mutation
// or compaction. Two calls returning the same version bracket a span
// in which readers saw one identical index.
func (ix *Index) SnapshotVersion() uint64 {
	return ix.load().Version()
}

// OverflowStats reports the disk-mode overflow-flush accounting: how
// many inserted transactions entered per-entry overflows, how many are
// currently pending a flush, and how many flushes ran for how long.
// All zero in memory mode.
func (ix *Index) OverflowStats() OverflowStats {
	return ix.load().OverflowStats()
}

// Signatures returns the item sets of the K signatures (read-only).
func (ix *Index) Signatures() [][]Item {
	return ix.load().Partition().Sets()
}

// Items returns the transaction stored under id. The returned slice is
// never mutated by the index, so it stays valid after later mutations.
func (ix *Index) Items(id TID) Transaction {
	return ix.load().Dataset().Get(id)
}

// Query runs a branch-and-bound k-NN search for the target under f.
// It takes no lock: the search runs against the table snapshot current
// when it started, unaffected by concurrent mutations.
//
// The context bounds the search: cancellation or a deadline aborts the
// branch-and-bound scan between entry visits and returns the partial
// result found so far with Result.Interrupted set and Certified false
// (unless the optimality certificate already held). A cancelled search
// is not an error; errors are reserved for invalid options.
func (ix *Index) Query(ctx context.Context, target Transaction, f SimilarityFunc, opt SearchOptions) (Result, error) {
	return ix.load().Query(ctx, target, f, opt.query())
}

// Nearest returns the single most similar transaction and its value.
// A search interrupted by context cancellation before finding any
// candidate returns the context's error.
func (ix *Index) Nearest(ctx context.Context, target Transaction, f SimilarityFunc) (TID, float64, error) {
	return ix.load().Nearest(ctx, target, f)
}

// RangeQuery returns all transactions meeting every (function,
// threshold) conjunct, lock-free against the current snapshot.
// Cancelling the context returns the matches found so far with
// RangeResult.Interrupted set.
func (ix *Index) RangeQuery(ctx context.Context, target Transaction, constraints []RangeConstraint, opt SearchOptions) (RangeResult, error) {
	return ix.load().RangeQuery(ctx, target, constraints, opt.ranged())
}

// MultiQuery finds the k transactions maximizing the average similarity
// to several targets. The context bounds the search exactly as in
// Query.
func (ix *Index) MultiQuery(ctx context.Context, targets []Transaction, f SimilarityFunc, opt SearchOptions) (Result, error) {
	return ix.load().MultiQuery(ctx, targets, f, opt.query())
}

// Explain returns the bound landscape a query for this target would
// see, without scanning any transactions — the tuning companion to
// Query.
func (ix *Index) Explain(target Transaction, f SimilarityFunc) Explanation {
	return ix.load().Explain(target, f)
}

// Explanation describes a query's per-entry optimistic bounds in
// visiting order.
type Explanation = core.Explanation

// DirectoryStats reports the entry directory's size and the
// process-wide bit-sliced ranking counters (see DESIGN.md §4h).
type DirectoryStats = core.DirectoryStats

// DirectoryStats snapshots the index's entry directory.
func (ix *Index) DirectoryStats() DirectoryStats {
	return ix.load().DirectoryStats()
}

// OverflowStats is the disk-mode overflow-flush accounting reported by
// (*Index).OverflowStats and (*ShardedIndex).OverflowStats; see
// IndexOptions.FlushThreshold.
type OverflowStats = core.OverflowStats

// Table exposes the underlying core table for advanced use (occupancy
// statistics, entry inspection). The returned table is the current
// published snapshot: it is immutable and stays fully readable forever
// (a later Insert/Delete/Compact publishes a NEW table rather than
// modifying this one), but it also stops reflecting the index from the
// next mutation on. Do not mutate it through the core API — the index
// owns the snapshot lineage.
func (ix *Index) Table() *core.Table {
	return ix.load()
}

// Close releases the index's disk resources: prefetch workers stop
// (and are waited for) and the page file, if any, is closed — for the
// current snapshot and any tables retired by Compact. Queries must
// have drained; an in-memory index without a store is a no-op.
func (ix *Index) Close() error {
	ix.wmu.Lock()
	defer ix.wmu.Unlock()
	err := ix.load().Close()
	for _, t := range ix.retired {
		if cerr := t.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	ix.retired = nil
	return err
}
