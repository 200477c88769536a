// Package sigtable is a similarity index for market basket data,
// implementing the signature table of Aggarwal, Wolf & Yu, "A New
// Method for Similarity Indexing of Market Basket Data" (SIGMOD 1999).
//
// A transaction is a sparse set of items from a universe of hundreds or
// thousands. The index partitions the universe into K correlated item
// groups ("signatures") mined from the data, maps every transaction to
// the K-bit pattern of signatures it activates (its "supercoordinate"),
// and answers nearest-neighbor, k-NN, range and multi-target similarity
// queries by branch and bound over the occupied supercoordinates.
//
// The similarity function is supplied at query time, not at build time:
// any f(x, y) of the match count x and hamming distance y that is
// non-decreasing in x and non-increasing in y is supported. Hamming
// distance, match/hamming ratio, cosine, Jaccard and Dice are built in;
// custom functions can be vetted with CheckMonotone.
//
// # Quick start
//
//	data := ... // *sigtable.Dataset
//	idx, err := sigtable.BuildIndex(data, sigtable.IndexOptions{SignatureCardinality: 15})
//	res, err := idx.Query(ctx, target, sigtable.Cosine{}, sigtable.SearchOptions{K: 10})
//
// # Search options (migration note)
//
// Every query entry point takes the same SearchOptions struct: K,
// MaxScanFraction, SortBy, Parallelism and SharedScan. Earlier
// releases had three structs — QueryOptions, RangeOptions and
// BatchOptions — which remain as deprecated aliases of SearchOptions,
// so existing code compiles unchanged (all three were always used
// with named fields). New code should say SearchOptions. The only
// semantic wrinkle is BatchQuery: in the unified form
//
//	idx.BatchQuery(ctx, targets, f, sigtable.SearchOptions{K: 5, Parallelism: 4})
//
// Parallelism is the batch worker pool, while the legacy two-struct
// form takes the pool width from BatchOptions.Parallelism.
// Query and MultiQuery ignore Parallelism: a single k-NN search always
// runs one serial branch-and-bound loop.
//
// # Contexts and deadlines
//
// Every query entry point (Query, Nearest, RangeQuery, MultiQuery,
// BatchQuery) takes a context as its first argument. Cancellation is
// checked between entry visits of the branch-and-bound loop and
// periodically within an entry's transaction scan, so a deadline
// aborts even a large scan almost immediately. An interrupted search
// is not an error: the partial result found so far is returned with
// Result.Interrupted set and, in general, Certified false. Nearest
// alone returns the context's error when interrupted before finding
// any candidate.
//
// # Concurrency and parallelism
//
// An Index is safe for concurrent use, and queries never block:
// every query runs lock-free against an immutable snapshot of the
// table, published by an atomic pointer. Insert, InsertBatch, Delete
// and Compact serialize against each other on a small writer mutex,
// derive a new snapshot by copying only what they touch, and publish
// it with one pointer store — they neither wait for in-flight queries
// nor delay new ones. A query observes exactly the mutations whose
// calls returned before it started, never a partial mutation;
// Index.Table pins the current snapshot explicitly for callers that
// want repeatable reads across several queries, and
// Engine.SnapshotVersion reports the publication counter (also
// exported as the sigtable_snapshot_version metric).
//
// Concurrency comes from running many queries at once; one k-NN search
// is one serial branch-and-bound loop. SearchOptions.Parallelism sizes
// only the searches that still fan out — a range query's entry
// partitioning and a batch's worker pool or shared-scan scoring — with
// 0 meaning GOMAXPROCS. The single-table, shared-scan and sharded
// engines drive the same loop bookkeeping, so their neighbors, cost
// counters and certificates are byte-identical, and the test suite
// checks all of them against a sequential-scan oracle.
// Result.Workers reports the goroutines a search used;
// Result.EntriesSpeculated counts entries a sharded search's workers
// scored ahead of the coordinator and discarded.
//
// # Batches and the shared scan
//
// BatchQuery answers one k-NN query per target. By default each slot is
// an independent Query; SearchOptions.SharedScan routes the batch
// through a single pass over the signature table instead, decoding each
// entry's transaction list at most once for all targets that want it.
// The results are byte-identical to the independent path — same
// neighbors, costs and certificates, slot by slot — only Result's
// execution-report fields (PagesRead, Workers) improve. On a disk-
// backed index the shared scan reads ~2× fewer pages at batch 16, and
// with real file backing (IndexOptions.PageFile) that is wall-clock
// time, not just a counter. IndexOptions.DecodeCacheBytes adds the
// orthogonal optimization across batches: a bounded cache of decoded
// hot-entry lists. Pages are write-once, so an Insert or Delete
// evicts only the mutated entry's cached decode and leaves the rest
// of the cache warm; Compact swaps in a rebuilt table with a fresh
// cache, discarding every cached decode at once. Either way a stale
// decode is unreachable, and the
// sigtable_decode_cache_invalidations_total{scope="list|global"}
// metric splits per-list evictions from wholesale generation bumps.
//
// Construction parallelizes the same way: IndexOptions.BuildParallelism
// (0 = GOMAXPROCS, 1 = serial) fans every build phase — support
// counting, supercoordinate computation, TID grouping, page writing —
// across workers, and the built index (entries, TID order, page
// layout) is identical for every worker count. Index.BuildStats
// reports the per-phase wall times; Index.Compact rebuilds off to
// the side with an explicit worker count and publishes the result as
// a new snapshot (queries keep running throughout), and
// Index.InsertBatch amortizes the writer mutex and snapshot
// publication over many inserts.
//
// On a disk-mode index, inserted transactions accumulate in the
// mutated entry's in-memory overflow until IndexOptions.FlushThreshold
// of them pile up on one entry (default 128; negative disables), at
// which point the overflow is encoded into fresh pages and appended
// to the entry's on-disk list as part of the same snapshot
// publication — long-running ingest keeps the paged scan path instead
// of degrading to linear in-memory scans. Engine.OverflowStats
// reports the accounting (also the sigtable_overflow_* metrics and
// the /v1/stats overflow section).
//
// # Storage formats (migration note)
//
// Disk-mode indexes (IndexOptions.PageSize > 0) choose an on-page
// encoding through IndexOptions.PageFormat. The zero value selects
// PageFormatV2, the block-compressed layout introduced after the
// original release: records are grouped into frames with delta +
// bit-packed TIDs and item gaps, frames of many lists share pages, and
// queries score through a fused decode kernel. PageFormatV1 keeps the
// original one-list-per-page-chain varint layout. Query results are
// byte-identical under both formats — only page counts and I/O change
// — so existing code needs no migration: new builds silently get v2,
// while index files persisted by earlier releases load and rebuild
// their pages as v1, exactly as written. Pass PageFormatV1 explicitly
// only to reproduce the old I/O profile (for example, to compare
// against historical BENCH_PR*.json numbers).
//
// # Disk I/O: coalesced reads and readahead
//
// File-backed indexes (IndexOptions.PageFile) issue their backend
// reads through two optimizations that never change results, only the
// I/O profile. First, a scan that misses the buffer pool on a run of
// consecutive pages fetches the run with a single positional read
// rather than one syscall per page; per-query counters (PagesRead,
// pool hits and misses) are unaffected, only the syscall count drops.
// Second, IndexOptions.PrefetchWorkers attaches an asynchronous
// prefetch pipeline to the store — 0 auto-attaches two workers when a
// real page file has a buffer pool, a negative value disables it —
// and every search engine offers the upcoming entries of its ranked
// visit order so the pipeline can warm the pool ahead of the scan.
// SearchOptions.ReadaheadDepth tunes that per search: 0 (the default)
// uses the pipeline's adaptive depth, a positive value fixes the
// window, a negative value opts the search out. Pages are write-once,
// so a prefetched page is never stale, and neighbors, costs and
// certificates are byte-identical with the pipeline on or off — the
// test suite asserts it by property testing.
//
// # Entry ranking: the directory
//
// The branch-and-bound visit order is computed by a columnar entry
// directory: per signature, a packed bitmap over the occupied entries,
// maintained incrementally by Insert/InsertBatch/Delete and rebuilt by
// Compact. Queries rank every entry with a bit-sliced kernel over the
// overlapped signatures' bitmaps and consume the order lazily
// best-first from a counting-sort ladder — byte-identical, position by
// position, to fully sorting every entry's scalar bounds, the
// reference the property tests compare it against.
// Engine.DirectoryStats reports the
// directory's size and ranking counters; the same numbers surface as
// sigtable_directory_* metrics and the /v1/stats directory section,
// and Explanation carries the kernel's bound decomposition
// (BaseMatch/BaseDist plus per-entry ActiveBits/DeltaMatch/DeltaDist).
//
// # Sharding
//
// NewSharded (or IndexOptions.Shards via the sigserver -shards flag)
// builds a ShardedIndex: the dataset is partitioned across S
// sub-indexes, each with its own signature table, page store and
// decode cache, and every query scatter-gathers across them. The
// merged result is byte-identical to the single table's — neighbors,
// cost counters and certificate, which the test suite asserts by
// property testing — while Insert, Delete and per-shard compaction
// take only the owning shard's writer mutex and publish a per-shard
// snapshot, so mutations never block queries on any shard. Both
// engines implement the Engine
// interface; ReadEngine loads either kind from its persisted form,
// which carries a versioned header (headerless seed-era files still
// load as single indexes).
//
// The HTTP serving layer (internal/server, cmd/sigserver) builds on
// this: every request runs under a configurable deadline, and a
// /v1/metrics endpoint exports query counts, latency histograms,
// branch-and-bound cost counters, and on a sharded engine the
// per-shard sigtable_shard_* family, in the Prometheus text format.
// The pre-/v1 unversioned routes are retired: they answer 410 Gone
// with the /v1 successor named in the error envelope and a Link
// header.
//
// See examples/ for runnable programs and DESIGN.md for the mapping
// from the paper's sections to packages.
package sigtable
