package core

import (
	"fmt"

	"sigtable/internal/txn"
)

// Dynamic maintenance. The signature table supports incremental
// inserts and deletes without rebuilding (snapshot.go): an insert
// appends the transaction to the dataset and to its supercoordinate's
// entry; a delete tombstones the TID. Both derive a new immutable
// table per mutation, which the public Index publishes atomically so
// queries never take a lock. In disk mode inserted transactions live
// in a per-entry in-memory overflow that scans after the entry's pages
// until it reaches the flush threshold; Rebuild compacts everything.

// Live reports the number of indexed, non-deleted transactions.
func (t *Table) Live() int { return t.live }

// IsDeleted reports whether a TID has been tombstoned.
func (t *Table) IsDeleted(id txn.TID) bool {
	return t.deleted != nil && int(id) < len(t.deleted) && t.deleted[id]
}

// Rebuild reconstructs the table over the current live transactions,
// compacting tombstones and (in disk mode) flushing overflow inserts to
// pages. TIDs are reassigned densely in the returned table's dataset;
// the receiver remains valid but stale. The rebuild reuses the build
// parallelism the table was constructed with.
func (t *Table) Rebuild() (*Table, error) {
	return t.RebuildParallel(t.buildPar)
}

// RebuildParallel is Rebuild with an explicit build parallelism
// (0 = GOMAXPROCS, 1 = serial), the hook the serving layer's
// /v1/rebuild endpoint threads its per-request worker count through.
func (t *Table) RebuildParallel(parallelism int) (*Table, error) {
	compact := txn.NewDataset(t.data.UniverseSize())
	for i, tr := range t.data.All() {
		if t.deleted != nil && t.deleted[i] {
			continue
		}
		compact.Append(tr)
	}
	opt := BuildOptions{ActivationThreshold: t.r, Parallelism: parallelism, PrefetchWorkers: t.prefetchWorkers, FlushThreshold: t.flushThreshold}
	gen := 0
	if t.store != nil {
		opt.PageSize = t.store.PageSize()
		opt.PageFormat = t.store.Format()
		if pool := t.store.Pool(); pool != nil {
			opt.BufferPoolPages = pool.Capacity()
		}
		if dc := t.store.DecodeCache(); dc != nil {
			opt.DecodeCacheBytes = dc.Capacity()
		}
		if t.pageFile != "" {
			// The stale table stays readable, so the rebuilt pages go to
			// a fresh generation file beside the original rather than
			// truncating the live one. Closing the old table's Store
			// releases its handle.
			gen = t.pageGen + 1
			opt.PageFile = fmt.Sprintf("%s.g%d", t.pageFile, gen)
		}
	}
	nt, err := Build(compact, t.part, opt)
	if err != nil {
		return nil, fmt.Errorf("core: rebuild: %w", err)
	}
	if t.pageFile != "" {
		nt.pageFile, nt.pageGen = t.pageFile, gen
	}
	// Adopt the lineage's shared state so the overflow counters stay
	// monotone across the swap (pools are safe to share; the stale
	// table remains queryable).
	nt.shared = t.shared
	nt.version = t.version + 1
	return nt, nil
}
