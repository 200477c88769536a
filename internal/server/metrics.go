package server

import (
	"strconv"
	"sync/atomic"
	"time"

	"sigtable"
	"sigtable/internal/metrics"
	"sigtable/internal/pager"
)

// opMetrics instruments the serving layer with the quantities the
// paper's evaluation is built on — transactions scanned, entries
// pruned, page I/O — plus operational latency histograms. Counters and
// histograms are recorded lock-free on the request path; gauges read
// index state through the Index's own locked accessors at scrape time.
type opMetrics struct {
	// Request counters per operation.
	queries      *metrics.Counter
	rangeQueries *metrics.Counter
	multiQueries *metrics.Counter
	inserts      *metrics.Counter
	deletes      *metrics.Counter
	rebuilds     *metrics.Counter
	errors       *metrics.Counter
	interrupted  *metrics.Counter
	httpRequests *metrics.Counter

	// Batch-query counters: batches served, targets answered inside
	// them, and how many batches took the shared-scan path.
	batchQueries     *metrics.Counter
	batchTargets     *metrics.Counter
	batchSharedScans *metrics.Counter

	// Branch-and-bound cost counters, accumulated from per-query
	// Result accounting.
	entriesScanned *metrics.Counter
	entriesPruned  *metrics.Counter
	txScanned      *metrics.Counter
	// entriesSpeculated accumulates parallel-search work that ran
	// ahead of the commit frontier and was discarded — the signal for
	// tuning per-query parallelism.
	entriesSpeculated *metrics.Counter

	// Latency histograms (seconds).
	queryLatency   *metrics.Histogram
	rangeLatency   *metrics.Histogram
	multiLatency   *metrics.Histogram
	batchLatency   *metrics.Histogram
	insertLatency  *metrics.Histogram
	deleteLatency  *metrics.Histogram
	rebuildLatency *metrics.Histogram

	// Scanned-transaction-count histograms: the per-query cost
	// distribution Figures 10–13 plot.
	queryScanned *metrics.Histogram
	rangeScanned *metrics.Histogram
	multiScanned *metrics.Histogram

	// queryWorkers is the distribution of scan goroutines used per
	// search (1 = serial path).
	queryWorkers *metrics.Histogram

	inFlight atomic.Int64
}

func newOpMetrics(reg *metrics.Registry, s *Server) *opMetrics {
	lat := metrics.LatencyBuckets()
	// 1 .. ~4M scanned transactions per query.
	scan := metrics.ExponentialBuckets(1, 4, 12)
	m := &opMetrics{
		queries:      reg.Counter("sigtable_queries_total", "k-NN queries served"),
		rangeQueries: reg.Counter("sigtable_range_queries_total", "range queries served"),
		multiQueries: reg.Counter("sigtable_multi_queries_total", "multi-target queries served"),
		inserts:      reg.Counter("sigtable_inserts_total", "transactions inserted"),
		deletes:      reg.Counter("sigtable_deletes_total", "transactions tombstoned"),
		rebuilds:     reg.Counter("sigtable_rebuilds_total", "in-place index rebuilds served"),
		errors:       reg.Counter("sigtable_request_errors_total", "requests answered with an error envelope"),
		interrupted:  reg.Counter("sigtable_queries_interrupted_total", "searches cut short by deadline or disconnect"),
		httpRequests: reg.Counter("sigtable_http_requests_total", "HTTP requests handled"),

		batchQueries:     reg.Counter("sigtable_batch_queries_total", "batch requests served"),
		batchTargets:     reg.Counter("sigtable_batch_targets_total", "k-NN targets answered inside batch requests"),
		batchSharedScans: reg.Counter("sigtable_batch_shared_scans_total", "batch requests answered by the shared-scan engine"),

		entriesScanned:    reg.Counter("sigtable_entries_scanned_total", "signature table entries scanned"),
		entriesPruned:     reg.Counter("sigtable_entries_pruned_total", "entries pruned by branch-and-bound optimistic bounds"),
		txScanned:         reg.Counter("sigtable_transactions_scanned_total", "transactions whose similarity was evaluated"),
		entriesSpeculated: reg.Counter("sigtable_entries_speculated_total", "sharded-search entries scored ahead of the coordinator and discarded"),

		queryLatency:   reg.Histogram("sigtable_query_duration_seconds", "k-NN query latency", lat),
		rangeLatency:   reg.Histogram("sigtable_range_duration_seconds", "range query latency", lat),
		multiLatency:   reg.Histogram("sigtable_multi_duration_seconds", "multi-target query latency", lat),
		batchLatency:   reg.Histogram("sigtable_batch_duration_seconds", "whole-batch latency", lat),
		insertLatency:  reg.Histogram("sigtable_insert_duration_seconds", "insert latency", lat),
		deleteLatency:  reg.Histogram("sigtable_delete_duration_seconds", "delete latency", lat),
		rebuildLatency: reg.Histogram("sigtable_rebuild_duration_seconds", "in-place rebuild latency (exclusive-lock window)", lat),

		queryScanned: reg.Histogram("sigtable_query_scanned_transactions", "transactions scanned per k-NN query", scan),
		rangeScanned: reg.Histogram("sigtable_range_scanned_transactions", "transactions scanned per range query", scan),
		multiScanned: reg.Histogram("sigtable_multi_scanned_transactions", "transactions scanned per multi-target query", scan),

		// 1 .. 128 workers.
		queryWorkers: reg.Histogram("sigtable_query_workers", "scan goroutines used per search", metrics.ExponentialBuckets(1, 2, 8)),
	}

	reg.GaugeFunc("sigtable_http_in_flight", "requests currently being served", func() float64 {
		return float64(m.inFlight.Load())
	})
	reg.GaugeFunc("sigtable_live_transactions", "indexed, non-deleted transactions", func() float64 {
		return float64(s.idx.Live())
	})
	reg.GaugeFunc("sigtable_index_entries", "occupied supercoordinates", func() float64 {
		return float64(s.idx.NumEntries())
	})
	reg.GaugeFunc("sigtable_universe_size", "item universe size", func() float64 {
		return float64(s.data.UniverseSize())
	})

	// Snapshot and overflow telemetry: the published-snapshot version
	// advances with every Insert/Delete (summed across shards on a
	// sharded engine), and the overflow family tracks the disk-mode
	// batched flush pipeline (DESIGN.md §4i).
	reg.GaugeFunc("sigtable_snapshot_version", "published table snapshot version (monotone per mutation; summed across shards)", func() float64 {
		return float64(s.idx.SnapshotVersion())
	})
	reg.CounterFunc("sigtable_overflow_transactions", "inserts absorbed by in-memory overflow buffers since build", func() float64 {
		return float64(s.idx.OverflowStats().Transactions)
	})
	reg.GaugeFunc("sigtable_overflow_pending", "overflow transactions buffered in memory, not yet flushed to pages", func() float64 {
		return float64(s.idx.OverflowStats().Pending)
	})
	reg.CounterFunc("sigtable_overflow_flushes_total", "batched overflow flushes that encoded buffered inserts into fresh page segments", func() float64 {
		return float64(s.idx.OverflowStats().Flushes)
	})
	reg.CounterFunc("sigtable_overflow_flush_seconds", "cumulative wall time spent encoding overflow flush segments", func() float64 {
		return s.idx.OverflowStats().FlushSeconds
	})

	// Build-phase wall times of the most recent build (initial
	// BuildIndex, refreshed by /v1/rebuild).
	reg.GaugeFunc("sigtable_build_workers", "resolved worker count of the last index build", func() float64 {
		return float64(s.idx.BuildStats().Workers)
	})
	reg.GaugeFunc("sigtable_build_mining_seconds", "support-counting phase wall time of the last build", func() float64 {
		return s.idx.BuildStats().Mining.Seconds()
	})
	reg.GaugeFunc("sigtable_build_partition_seconds", "signature clustering phase wall time of the last build", func() float64 {
		return s.idx.BuildStats().Partition.Seconds()
	})
	reg.GaugeFunc("sigtable_build_coords_seconds", "supercoordinate phase wall time of the last build", func() float64 {
		return s.idx.BuildStats().Coords.Seconds()
	})
	reg.GaugeFunc("sigtable_build_group_seconds", "TID-grouping phase wall time of the last build", func() float64 {
		return s.idx.BuildStats().Group.Seconds()
	})
	reg.GaugeFunc("sigtable_build_write_seconds", "page-writing phase wall time of the last build", func() float64 {
		return s.idx.BuildStats().Write.Seconds()
	})

	// Entry-directory telemetry: size gauges resolved through the
	// index's locked accessor at scrape time (rebuilds swap the table
	// and its directory), ranking counters process-wide and monotone.
	reg.GaugeFunc("sigtable_directory_entries", "entry directory slots (occupied supercoordinates indexed)", func() float64 {
		return float64(s.idx.DirectoryStats().Slots)
	})
	reg.GaugeFunc("sigtable_directory_bytes", "entry directory memory footprint", func() float64 {
		return float64(s.idx.DirectoryStats().Bytes)
	})
	reg.CounterFunc("sigtable_directory_rebuilds_total", "from-scratch entry directory constructions", func() float64 {
		return float64(s.idx.DirectoryStats().Rebuilds)
	})
	reg.CounterFunc("sigtable_directory_ranks_total", "bit-sliced entry ranking passes", func() float64 {
		return float64(s.idx.DirectoryStats().Ranks)
	})
	reg.CounterFunc("sigtable_directory_rank_seconds", "cumulative wall time of bit-sliced ranking passes", func() float64 {
		return s.idx.DirectoryStats().RankSeconds
	})
	reg.CounterFunc("sigtable_directory_entries_ranked_total", "entries the bit-sliced kernel bounded", func() float64 {
		return float64(s.idx.DirectoryStats().EntriesRanked)
	})
	reg.CounterFunc("sigtable_directory_entries_ordered_total", "entries the ranking ladder put in final visiting order", func() float64 {
		return float64(s.idx.DirectoryStats().EntriesOrdered)
	})

	// Per-shard telemetry for the sharded engine: sizes, query
	// fan-out, accumulated lock wait and page reads, one series per
	// shard under a "shard" label.
	if sx, ok := s.idx.(*sigtable.ShardedIndex); ok {
		shardVec := func(f func(sigtable.ShardStats) float64) func() []metrics.LabeledValue {
			return func() []metrics.LabeledValue {
				stats := sx.ShardStats()
				out := make([]metrics.LabeledValue, len(stats))
				for i, st := range stats {
					out[i] = metrics.LabeledValue{Label: strconv.Itoa(st.Shard), Value: f(st)}
				}
				return out
			}
		}
		reg.GaugeVecFunc("sigtable_shard_live_transactions", "live transactions per shard", "shard",
			shardVec(func(st sigtable.ShardStats) float64 { return float64(st.Live) }))
		reg.GaugeVecFunc("sigtable_shard_transactions", "transactions per shard including tombstones", "shard",
			shardVec(func(st sigtable.ShardStats) float64 { return float64(st.Len) }))
		reg.GaugeVecFunc("sigtable_shard_entries", "occupied supercoordinates per shard", "shard",
			shardVec(func(st sigtable.ShardStats) float64 { return float64(st.Entries) }))
		reg.CounterVecFunc("sigtable_shard_scans_total", "queries fanned out to the shard", "shard",
			shardVec(func(st sigtable.ShardStats) float64 { return float64(st.Scans) }))
		reg.CounterVecFunc("sigtable_shard_lock_wait_seconds_total", "time spent acquiring the shard's lock", "shard",
			shardVec(func(st sigtable.ShardStats) float64 { return float64(st.LockWaitNanos) / 1e9 }))
		reg.CounterVecFunc("sigtable_shard_pages_read_total", "pages fetched by the shard's store", "shard",
			shardVec(func(st sigtable.ShardStats) float64 { return float64(st.PagesRead) }))
	}

	// Disk-mode I/O counters, sourced from the pager's own atomics.
	// The store and pool are resolved through the index at every
	// scrape, never captured: /v1/rebuild swaps the whole table (and
	// with it store and pool) in place, and a closure over the startup
	// store would keep exporting the dead one's counters. A sharded
	// engine has one store per shard; its I/O is exported per shard by
	// the sigtable_shard_* family instead.
	store := func() *pager.Store { return singleTableStore(s.idx) }
	pool := func() *pager.BufferPool {
		if st := store(); st != nil {
			return st.Pool()
		}
		return nil
	}
	if store() != nil {
		storeStat := func(f func(pager.Stats) float64) func() float64 {
			return func() float64 {
				st := store()
				if st == nil {
					return 0
				}
				return f(st.Stats())
			}
		}
		reg.CounterFunc("sigtable_pages_read_total", "simulated disk pages fetched",
			storeStat(func(st pager.Stats) float64 { return float64(st.Reads) }))
		reg.CounterFunc("sigtable_pages_written_total", "simulated disk pages written",
			storeStat(func(st pager.Stats) float64 { return float64(st.Writes) }))
		reg.CounterFunc("sigtable_bufferpool_misses_total", "page reads that went to disk",
			storeStat(func(st pager.Stats) float64 { return float64(st.Misses) }))
		reg.CounterFunc("sigtable_bufferpool_hits_total", "page reads absorbed by the buffer pool",
			storeStat(func(st pager.Stats) float64 { return float64(st.Reads - st.Misses) }))
		reg.CounterFunc("sigtable_pager_bytes_read_total", "page payload bytes returned by reads",
			storeStat(func(st pager.Stats) float64 { return float64(st.BytesRead) }))
		reg.CounterFunc("sigtable_pager_bytes_written_total", "page payload bytes written",
			storeStat(func(st pager.Stats) float64 { return float64(st.BytesWritten) }))
		reg.CounterFunc("sigtable_backend_reads_total", "backend read calls (pread syscalls in file mode); run coalescing keeps this below misses",
			storeStat(func(st pager.Stats) float64 { return float64(st.BackendReads) }))
		reg.CounterFunc("sigtable_coalesced_reads_total", "backend reads that fetched a run of more than one page in a single call",
			storeStat(func(st pager.Stats) float64 { return float64(st.CoalescedReads) }))
		reg.CounterFunc("sigtable_read_run_pages_total", "pages fetched by coalesced multi-page backend reads",
			storeStat(func(st pager.Stats) float64 { return float64(st.ReadRunPages) }))

	}
	if pool() != nil {
		poolStat := func(f func(*pager.BufferPool) float64) func() float64 {
			return func() float64 {
				p := pool()
				if p == nil {
					return 0
				}
				return f(p)
			}
		}
		reg.CounterFunc("sigtable_pool_hits_total", "buffer-pool Gets served from cache",
			poolStat(func(p *pager.BufferPool) float64 { h, _ := p.Stats(); return float64(h) }))
		reg.CounterFunc("sigtable_pool_misses_total", "buffer-pool Gets that missed",
			poolStat(func(p *pager.BufferPool) float64 { _, mi := p.Stats(); return float64(mi) }))
		reg.CounterFunc("sigtable_pool_contention_total", "pool operations that found their shard lock held",
			poolStat(func(p *pager.BufferPool) float64 { return float64(p.Contention()) }))
		reg.GaugeFunc("sigtable_pool_shards", "buffer-pool lock shards",
			poolStat(func(p *pager.BufferPool) float64 { return float64(p.Shards()) }))
		reg.GaugeFunc("sigtable_pool_resident_pages", "pages resident across all pool shards",
			poolStat(func(p *pager.BufferPool) float64 { return float64(p.Len()) }))
		// Kept under its pre-sharding name for dashboard compatibility.
		reg.GaugeFunc("sigtable_bufferpool_resident_pages", "pages resident in the buffer pool",
			poolStat(func(p *pager.BufferPool) float64 { return float64(p.Len()) }))

		poolVec := func(f func(pager.ShardStats) float64) func() []metrics.LabeledValue {
			return func() []metrics.LabeledValue {
				p := pool()
				if p == nil {
					return nil
				}
				stats := p.ShardStats()
				out := make([]metrics.LabeledValue, len(stats))
				for i, st := range stats {
					out[i] = metrics.LabeledValue{Label: strconv.Itoa(i), Value: f(st)}
				}
				return out
			}
		}
		reg.CounterVecFunc("sigtable_pool_shard_hits_total", "buffer-pool hits per lock shard", "shard",
			poolVec(func(st pager.ShardStats) float64 { return float64(st.Hits) }))
		reg.CounterVecFunc("sigtable_pool_shard_misses_total", "buffer-pool misses per lock shard", "shard",
			poolVec(func(st pager.ShardStats) float64 { return float64(st.Misses) }))
		reg.CounterVecFunc("sigtable_pool_shard_contention_total", "contended lock acquisitions per pool shard", "shard",
			poolVec(func(st pager.ShardStats) float64 { return float64(st.Contended) }))
		reg.GaugeVecFunc("sigtable_pool_shard_resident_pages", "resident pages per pool shard", "shard",
			poolVec(func(st pager.ShardStats) float64 { return float64(st.Resident) }))
	}

	// Decode-cache telemetry, resolved through the index at scrape time
	// for the same rebuild-swaps-the-store reason as the pool metrics.
	cache := func() *pager.DecodeCache {
		if st := store(); st != nil {
			return st.DecodeCache()
		}
		return nil
	}
	if cache() != nil {
		cacheStat := func(f func(*pager.DecodeCache) float64) func() float64 {
			return func() float64 {
				c := cache()
				if c == nil {
					return 0
				}
				return f(c)
			}
		}
		reg.CounterFunc("sigtable_decode_cache_hits_total", "entry scans served from the decoded-list cache",
			cacheStat(func(c *pager.DecodeCache) float64 { h, _ := c.Stats(); return float64(h) }))
		reg.CounterFunc("sigtable_decode_cache_misses_total", "entry scans that decoded pages",
			cacheStat(func(c *pager.DecodeCache) float64 { _, mi := c.Stats(); return float64(mi) }))
		// Invalidations split by scope: "list" evictions drop one entry's
		// cached decode (the fine-grained path mutations take), "global"
		// generation bumps orphan every cached decode (rebuilds).
		reg.CounterVecFunc("sigtable_decode_cache_invalidations_total", "cached-decode invalidations by scope (list = one entry evicted, global = generation bump orphaning all)", "scope",
			func() []metrics.LabeledValue {
				c := cache()
				if c == nil {
					return nil
				}
				list, global := c.Invalidations()
				return []metrics.LabeledValue{
					{Label: "list", Value: float64(list)},
					{Label: "global", Value: float64(global)},
				}
			})
		reg.GaugeFunc("sigtable_decode_cache_bytes", "decoded payload bytes resident in the cache",
			cacheStat(func(c *pager.DecodeCache) float64 { return float64(c.Bytes()) }))
		reg.GaugeFunc("sigtable_decode_cache_capacity_bytes", "configured decode-cache byte budget",
			cacheStat(func(c *pager.DecodeCache) float64 { return float64(c.Capacity()) }))
		reg.GaugeFunc("sigtable_decode_cache_lists", "decoded entry lists resident in the cache",
			cacheStat(func(c *pager.DecodeCache) float64 { return float64(c.Len()) }))
	}
	return m
}

// singleTableStore resolves the pager store behind a single-table
// engine, or nil for a sharded engine (whose per-shard stores are
// exported through ShardStats instead).
func singleTableStore(e sigtable.Engine) *pager.Store {
	if ix, ok := e.(*sigtable.Index); ok {
		return ix.Table().Store()
	}
	return nil
}

func (m *opMetrics) observeQuery(d time.Duration, res sigtable.Result) {
	m.queries.Inc()
	m.queryLatency.Observe(d.Seconds())
	m.queryScanned.Observe(float64(res.Scanned))
	m.queryWorkers.Observe(float64(res.Workers))
	m.entriesSpeculated.Add(int64(res.EntriesSpeculated))
	m.recordCost(res.EntriesScanned, res.EntriesPruned, res.Scanned, res.Interrupted)
}

func (m *opMetrics) observeRange(d time.Duration, res sigtable.RangeResult) {
	m.rangeQueries.Inc()
	m.rangeLatency.Observe(d.Seconds())
	m.rangeScanned.Observe(float64(res.Scanned))
	m.queryWorkers.Observe(float64(res.Workers))
	m.recordCost(res.EntriesScanned, res.EntriesPruned, res.Scanned, res.Interrupted)
}

func (m *opMetrics) observeMulti(d time.Duration, res sigtable.Result) {
	m.multiQueries.Inc()
	m.multiLatency.Observe(d.Seconds())
	m.multiScanned.Observe(float64(res.Scanned))
	m.queryWorkers.Observe(float64(res.Workers))
	m.entriesSpeculated.Add(int64(res.EntriesSpeculated))
	m.recordCost(res.EntriesScanned, res.EntriesPruned, res.Scanned, res.Interrupted)
}

// observeBatch records one batch request: the whole-batch latency plus
// per-slot cost accounting, each slot flowing into the same scanned /
// pruned / interrupted counters a standalone query would.
func (m *opMetrics) observeBatch(d time.Duration, sharedScan bool, results []sigtable.Result) {
	m.batchQueries.Inc()
	m.batchTargets.Add(int64(len(results)))
	if sharedScan {
		m.batchSharedScans.Inc()
	}
	m.batchLatency.Observe(d.Seconds())
	for _, res := range results {
		m.queryScanned.Observe(float64(res.Scanned))
		m.entriesSpeculated.Add(int64(res.EntriesSpeculated))
		m.recordCost(res.EntriesScanned, res.EntriesPruned, res.Scanned, res.Interrupted)
	}
}

func (m *opMetrics) recordCost(entriesScanned, entriesPruned, scanned int, interrupted bool) {
	m.entriesScanned.Add(int64(entriesScanned))
	m.entriesPruned.Add(int64(entriesPruned))
	m.txScanned.Add(int64(scanned))
	if interrupted {
		m.interrupted.Inc()
	}
}
