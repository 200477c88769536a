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
// BatchOptions. QueryOptions and BatchOptions remain as deprecated
// aliases of SearchOptions, so top-k and batch code compiles
// unchanged; RangeOptions has been removed — range queries take
// SearchOptions{Parallelism: n}. New code should say SearchOptions.
// The only semantic wrinkle is BatchQuery: in the unified form
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
// # Storage format (migration note)
//
// Disk-mode indexes (IndexOptions.PageSize > 0) store transaction
// lists in one layout: records are grouped into frames with delta +
// bit-packed TIDs and item gaps, frames of many lists share pages, and
// queries score through a fused decode kernel. The original
// one-list-per-page-chain varint layout (v1) has been removed.
// IndexOptions.PageFormat is deprecated: zero and PageFormatV2 are
// accepted, and any other value — including 1, the retired v1 layout —
// fails BuildIndex and NewSharded with an error. The v1 constant is
// gone, so code that selected v1 no longer compiles; drop the setting.
// Index files persisted by earlier releases, including ones that
// recorded the v1 layout, still load: pages are never persisted, and
// loading rebuilds them from the dataset in the current layout with
// byte-identical query results.
//
// # Disk I/O: coalesced reads
//
// File-backed indexes (IndexOptions.PageFile) read pages only from the
// scan that consumes them. A scan that misses the buffer pool on a run
// of consecutive pages fetches the run with a single positional read
// rather than one syscall per page, stopping the run at the first page
// the pool already holds. Results never change, and neither do the
// per-query counters (PagesRead, pool hits and misses); only the
// syscall count drops. There is no background prefetching: an earlier
// asynchronous prefetch pipeline and its two options cost more CPU
// than they saved on a cold-cache workload and have been removed, so
// code that set them no longer compiles — delete the fields.
//
// # Entry ranking: the directory
//
// The branch-and-bound visit order is computed by a columnar entry
// directory: per signature, a packed bitmap over the occupied entries,
// maintained incrementally by Insert/InsertBatch/Delete and rebuilt by
// Compact. Queries rank every entry with a bit-sliced kernel over the
// overlapped signatures' bitmaps and consume the order lazily
// best-first from a ladder that splits, tie-keys and sorts only the
// segments the search reaches — byte-identical, position by position,
// to fully sorting every entry's scalar bounds, the reference the
// property tests compare it against.
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
// The pre-/v1 unversioned routes are gone: they answer 404.
//
// See examples/ for runnable programs and DESIGN.md for the mapping
// from the paper's sections to packages.
package sigtable
