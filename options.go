package sigtable

import "sigtable/internal/core"

// SearchOptions is the one options struct every search entry point
// takes: Query, Nearest (implicitly, with the zero value), RangeQuery,
// MultiQuery and BatchQuery. It supersedes the former QueryOptions /
// RangeOptions / BatchOptions trio — each search reads the fields that
// apply to it and ignores the rest, so one struct can parameterize a
// whole request path end to end.
type SearchOptions struct {
	// K is the number of neighbors to return (default 1). Top-k
	// searches only; range queries ignore it.
	K int
	// MaxScanFraction, in (0, 1], enables early termination after
	// examining that fraction of the database's transactions (§4.2).
	// Zero runs to completion. Top-k searches only.
	MaxScanFraction float64
	// SortBy selects the entry visiting order. Top-k searches only.
	SortBy SortCriterion
	// Parallelism bounds the goroutines a range query or a batch uses:
	// for a range query the entry partitioning width, for a batch the
	// pool width or the shared scan's scoring fan-out (see BatchQuery);
	// 0 selects GOMAXPROCS. Results are identical at every setting.
	// Query and MultiQuery ignore it: a single branch-and-bound search
	// always runs one serial loop (a sharded index scatters it across
	// its shards instead).
	Parallelism int
	// SharedScan routes a BatchQuery through ONE scan over the
	// signature table instead of independent per-target queries; see
	// BatchQuery. Other searches ignore it.
	SharedScan bool
}

// query projects the fields a core top-k search reads.
func (o SearchOptions) query() core.QueryOptions {
	return core.QueryOptions{
		K:               o.K,
		MaxScanFraction: o.MaxScanFraction,
		SortBy:          o.SortBy,
	}
}

// ranged projects the fields a core range query reads.
func (o SearchOptions) ranged() core.RangeOptions {
	return core.RangeOptions{Parallelism: o.Parallelism}
}

// Deprecated: QueryOptions is the pre-unification name for the top-k
// fields of SearchOptions. Existing code compiles unchanged; new code
// should say SearchOptions.
type QueryOptions = SearchOptions

// Deprecated: BatchOptions is the pre-unification name for the batch
// fields of SearchOptions (SharedScan, Parallelism). Use SearchOptions
// and pass a single options struct to BatchQuery.
type BatchOptions = SearchOptions
