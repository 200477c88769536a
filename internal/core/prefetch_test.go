package core

import (
	"context"
	"math/rand"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"sigtable/internal/pager"
	"sigtable/internal/simfun"
	"sigtable/internal/txn"
)

// Prefetch identity: the async readahead pipeline only warms the
// buffer pool, so every engine must answer byte-identically with it on
// or off, at every readahead depth, under both page formats. The
// prefetching table uses an in-memory pooled store — the pipeline
// attaches to any pooled store when workers are requested explicitly,
// which keeps these property tests off the filesystem.

// prefetchPair builds the same dataset twice under one format: plain,
// and pooled with prefetch workers attached.
func prefetchPair(t *testing.T, rng *rand.Rand, n, universe, k, pageSize int, format pager.Format) (*Table, *Table) {
	t.Helper()
	d := randomDataset(rng, n, universe)
	part := randomPartition(t, rng, universe, k)
	plain := buildTestTable(t, d, part, BuildOptions{PageSize: pageSize, PageFormat: format})
	pre := buildTestTable(t, d, part, BuildOptions{
		PageSize: pageSize, PageFormat: format,
		BufferPoolPages: 4096, PrefetchWorkers: 2,
	})
	if pre.store.Prefetcher() == nil {
		t.Fatal("prefetcher did not attach to the pooled store")
	}
	return plain, pre
}

func TestPrefetchQueryIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, format := range []pager.Format{1, 2} {
		plain, pre := prefetchPair(t, rng, 600, 80, 7, 256, format)
		ctx := context.Background()
		for qi := 0; qi < 15; qi++ {
			target := randomTarget(rng, 80)
			for _, f := range allSimFuncs() {
				for _, opt := range []QueryOptions{
					{K: 5},
					{K: 5, ReadaheadDepth: 4},
					{K: 5, ReadaheadDepth: -1},
					{K: 3, MaxScanFraction: 0.2, ReadaheadDepth: 2},
					{K: 5, ReadaheadDepth: 8},
					{K: 5, SortBy: ByCoordSimilarity, ReadaheadDepth: 1},
				} {
					r1, err := plain.Query(ctx, target, f, opt)
					if err != nil {
						t.Fatal(err)
					}
					r2, err := pre.Query(ctx, target, f, opt)
					if err != nil {
						t.Fatal(err)
					}
					checkResultEqual(t, "prefetch query", r1, r2)
				}
			}
		}
	}
}

func TestPrefetchBatchAndMultiIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	plain, pre := prefetchPair(t, rng, 600, 80, 7, 256, 2)
	ctx := context.Background()
	targets := make([]txn.Transaction, 10)
	for i := range targets {
		targets[i] = randomTarget(rng, 80)
	}
	for _, opt := range []QueryOptions{
		{K: 4},
		{K: 4, ReadaheadDepth: 6},
	} {
		for _, workers := range []int{1, 4} {
			rs1, err := plain.QueryBatch(ctx, targets, simfun.Cosine{}, opt, workers)
			if err != nil {
				t.Fatal(err)
			}
			rs2, err := pre.QueryBatch(ctx, targets, simfun.Cosine{}, opt, workers)
			if err != nil {
				t.Fatal(err)
			}
			for i := range rs1 {
				checkResultEqual(t, "prefetch batch", rs1[i], rs2[i])
			}
		}
		r1, err := plain.MultiQuery(ctx, targets[:3], simfun.Jaccard{}, opt)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := pre.MultiQuery(ctx, targets[:3], simfun.Jaccard{}, opt)
		if err != nil {
			t.Fatal(err)
		}
		checkResultEqual(t, "prefetch multi", r1, r2)
	}
}

// TestPrefetchMutationIdentity: queries through a sequence of snapshot
// inserts and deletes on a prefetching table must stay identical to
// the non-prefetching twin's.
func TestPrefetchMutationIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	d := randomDataset(rng, 400, 60)
	d2 := txn.NewDataset(d.UniverseSize())
	for _, tr := range d.All() {
		d2.Append(tr)
	}
	part := randomPartition(t, rng, 60, 6)
	plain := buildTestTable(t, d, part, BuildOptions{PageSize: 256, PageFormat: 2})
	pre := buildTestTable(t, d2, part, BuildOptions{
		PageSize: 256, PageFormat: 2, BufferPoolPages: 4096, PrefetchWorkers: 2,
	})
	ctx := context.Background()

	check := func(label string) {
		t.Helper()
		for qi := 0; qi < 6; qi++ {
			target := randomTarget(rng, 60)
			r1, err := plain.Query(ctx, target, simfun.Dice{}, QueryOptions{K: 5, ReadaheadDepth: 4})
			if err != nil {
				t.Fatal(err)
			}
			r2, err := pre.Query(ctx, target, simfun.Dice{}, QueryOptions{K: 5, ReadaheadDepth: 4})
			if err != nil {
				t.Fatal(err)
			}
			checkResultEqual(t, label, r1, r2)
		}
	}
	check("pristine")
	for i := 0; i < 40; i++ {
		tr := randomTarget(rng, 60)
		var id1, id2 txn.TID
		plain, id1 = plain.InsertSnapshot(tr)
		pre, id2 = pre.InsertSnapshot(tr)
		if id1 != id2 {
			t.Fatal("insert TIDs diverged")
		}
	}
	for i := 0; i < 30; i++ {
		id := txn.TID(rng.Intn(400))
		var ok1, ok2 bool
		plain, ok1 = plain.DeleteSnapshot(id)
		pre, ok2 = pre.DeleteSnapshot(id)
		if ok1 != ok2 {
			t.Fatal("delete outcomes diverged")
		}
	}
	check("mutated")
}

// TestPrefetchCancelledQueryLeavesNoGoroutines: a context cancelled
// mid-search must not strand prefetch work — the worker count stays at
// the attached baseline, and Close reaps it entirely.
func TestPrefetchCancelledQueryLeavesNoGoroutines(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	base := runtime.NumGoroutine()
	d := randomDataset(rng, 500, 80)
	part := randomPartition(t, rng, 80, 7)
	tbl := buildTestTable(t, d, part, BuildOptions{
		PageSize: 256, PageFormat: 2, BufferPoolPages: 4096, PrefetchWorkers: 3,
	})
	withWorkers := runtime.NumGoroutine()
	if withWorkers < base+3 {
		t.Fatalf("workers did not start: %d -> %d goroutines", base, withWorkers)
	}
	for i := 0; i < 20; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_, err := tbl.Query(ctx, randomTarget(rng, 80), simfun.Cosine{}, QueryOptions{K: 5, ReadaheadDepth: 8})
		if err != nil {
			t.Fatal(err)
		}
	}
	// Cancelled queries spawn nothing beyond the fixed worker pool.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > withWorkers {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines grew past the worker pool: %d > %d", runtime.NumGoroutine(), withWorkers)
		}
		time.Sleep(time.Millisecond)
	}
	if err := tbl.Close(); err != nil {
		t.Fatal(err)
	}
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("Close leaked goroutines: %d > baseline %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPrefetchFileBackedReducesBackendReads is the end-to-end syscall
// acceptance at the core layer: cold branch-and-bound queries over a
// file-backed v2 table must need at least 25% fewer backend reads than
// pages missed, courtesy of run coalescing.
func TestPrefetchFileBackedReducesBackendReads(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	// Few signatures over a small universe: a handful of entries, each
	// holding hundreds of transactions whose lists span many
	// consecutive pages — the shape run coalescing feeds on.
	d := randomDataset(rng, 4000, 40)
	part := randomPartition(t, rng, 40, 4)
	tbl := buildTestTable(t, d, part, BuildOptions{
		PageSize:   128,
		PageFormat: 2,
		PageFile:   filepath.Join(t.TempDir(), "pages.dat"),
	})
	defer tbl.Close()
	ctx := context.Background()
	for qi := 0; qi < 10; qi++ {
		if _, err := tbl.Query(ctx, randomTarget(rng, 40), simfun.Cosine{}, QueryOptions{K: 5}); err != nil {
			t.Fatal(err)
		}
	}
	st := tbl.store.Stats()
	if st.Misses == 0 {
		t.Fatal("fixture never touched the backend")
	}
	if 4*st.BackendReads > 3*st.Misses {
		t.Fatalf("BackendReads = %d > 0.75 × Misses = %d: coalescing under-delivered", st.BackendReads, st.Misses)
	}
}
