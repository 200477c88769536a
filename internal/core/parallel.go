package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"sigtable/internal/pager"
	"sigtable/internal/signature"
	"sigtable/internal/txn"
)

// minBuildChunk is the smallest per-worker transaction range worth a
// build goroutine. A var so the build property tests can drop the gate
// and exercise the parallel path on small fixtures.
var minBuildChunk = 4096

// buildWorkers resolves BuildOptions.Parallelism against the dataset
// size: 0 means GOMAXPROCS, 1 forces serial, and small datasets always
// build serially regardless of the request.
func buildWorkers(n, parallelism int) int {
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	if minBuildChunk > 0 {
		if max := n / minBuildChunk; parallelism > max {
			parallelism = max
		}
	}
	if parallelism < 1 {
		parallelism = 1
	}
	return parallelism
}

// computeCoords evaluates every transaction's supercoordinate, fanning
// the work across the resolved workers.
func computeCoords(data *txn.Dataset, part *signature.Partition, r, workers int) []signature.Coord {
	n := data.Len()
	coords := make([]signature.Coord, n)
	if workers <= 1 {
		for i, tr := range data.All() {
			coords[i] = part.Coord(tr, r)
		}
		return coords
	}

	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				coords[i] = part.Coord(data.Get(txn.TID(i)), r)
			}
		}(lo, hi)
	}
	wg.Wait()
	return coords
}

// groupCoords files every TID under its supercoordinate's entry. With
// workers > 1 each worker buckets a contiguous TID range into a
// private map, and the buckets are merged in range order — worker
// ranges are ascending and each worker appends in ascending TID order,
// so every entry's TID list comes out identical to the serial pass.
func groupCoords(coords []signature.Coord, workers int) []*Entry {
	byCoord := make(map[signature.Coord]*Entry)
	var entries []*Entry
	entryFor := func(c signature.Coord) *Entry {
		e := byCoord[c]
		if e == nil {
			e = &Entry{Coord: c}
			byCoord[c] = e
			entries = append(entries, e)
		}
		return e
	}

	if workers <= 1 {
		for i, c := range coords {
			e := entryFor(c)
			e.tids = append(e.tids, txn.TID(i))
			e.Count++
		}
		return entries
	}

	n := len(coords)
	chunk := (n + workers - 1) / workers
	locals := make([]map[signature.Coord][]txn.TID, 0, workers)
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		local := make(map[signature.Coord][]txn.TID)
		locals = append(locals, local)
		wg.Add(1)
		go func(local map[signature.Coord][]txn.TID, lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				local[coords[i]] = append(local[coords[i]], txn.TID(i))
			}
		}(local, lo, hi)
	}
	wg.Wait()

	// Deterministic merge: map iteration order is random, but every
	// coordinate's buckets are concatenated strictly in worker-range
	// order, so per-entry TID lists are exactly the serial ones. The
	// entries slice order is insertion-dependent either way; Build
	// sorts it by coordinate right after.
	for _, local := range locals {
		for c, ids := range local {
			e := entryFor(c)
			e.tids = append(e.tids, ids...)
			e.Count += len(ids)
		}
	}
	return entries
}

// writeEntryLists moves every entry's transactions onto store pages.
// The serial path appends entry by entry; the parallel path stages
// each entry's encoding concurrently (the CPU-heavy half), then places
// the results in entry order — so for any worker count the resulting
// page layout is byte-identical to the serial build's, the property
// internal/core/build_parallel_test.go pins. Lists share pages, so
// placement is a single-goroutine append of pre-encoded frames — cheap
// next to the staging it follows. The store is sealed before the first
// read.
func writeEntryLists(store *pager.Store, data *txn.Dataset, entries []*Entry, workers int) error {
	defer store.Seal()
	if workers <= 1 {
		for _, e := range entries {
			txns := make([]txn.Transaction, len(e.tids))
			for j, id := range e.tids {
				txns[j] = data.Get(id)
			}
			list, err := store.WriteList(e.tids, txns)
			if err != nil {
				return fmt.Errorf("core: writing entry %#x: %w", e.Coord, err)
			}
			e.lists = []pager.List{list}
			e.tids = nil // transactions now live on "disk"
		}
		return nil
	}

	staged := make([]*pager.StagedList, len(entries))
	var firstErr atomic.Value
	run := func(fn func(i int)) {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(entries) || firstErr.Load() != nil {
						return
					}
					fn(i)
				}
			}()
		}
		wg.Wait()
	}

	// Stage: encode every entry's pages, any order, full concurrency.
	run(func(i int) {
		e := entries[i]
		txns := make([]txn.Transaction, len(e.tids))
		for j, id := range e.tids {
			txns[j] = data.Get(id)
		}
		st, err := store.StageList(e.tids, txns)
		if err != nil {
			firstErr.CompareAndSwap(nil, fmt.Errorf("core: writing entry %#x: %w", e.Coord, err))
			return
		}
		staged[i] = st
	})
	if err := firstErr.Load(); err != nil {
		return err.(error)
	}

	// Place: single goroutine, entry order — frames pack onto shared
	// pages exactly as a serial WriteList sequence would.
	for i, st := range staged {
		entries[i].lists = []pager.List{store.AppendStaged(st)}
		entries[i].tids = nil
	}
	return nil
}
