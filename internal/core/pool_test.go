package core

import (
	"context"
	"math/rand"
	"path/filepath"
	"testing"

	"sigtable/internal/simfun"
	"sigtable/internal/txn"
)

// Pooled-store identity: a buffer pool only caches pages, so every
// engine must answer byte-identically — neighbors, costs and PagesRead
// — with or without one. The pool holds far
// fewer pages than the store, so scans keep evicting each other's
// pages and the coalesced reader's runs keep stopping at resident
// ones. The stores are in memory, which keeps these property tests off
// the filesystem; the read path is the same as a file's.
//
// The Prefetch* names date from the removed prefetch pipeline, which
// these tests covered alongside the pool; they now check the pool.

// poolTestPages is the pooled twin's buffer pool size.
const poolTestPages = 4

// pooledPair builds the same dataset twice on pages: without and with
// a buffer pool.
func pooledPair(t *testing.T, rng *rand.Rand, n, universe, k, pageSize int) (*Table, *Table) {
	t.Helper()
	d := randomDataset(rng, n, universe)
	part := randomPartition(t, rng, universe, k)
	plain := buildTestTable(t, d, part, BuildOptions{PageSize: pageSize})
	pooled := buildTestTable(t, d, part, BuildOptions{PageSize: pageSize, BufferPoolPages: poolTestPages})
	if pooled.store.NumPages() < 4*poolTestPages {
		t.Fatalf("fixture too small: %d pages for a %d-page pool", pooled.store.NumPages(), poolTestPages)
	}
	return plain, pooled
}

// checkPooledEqual is checkResultEqual plus PagesRead: the pool changes
// where a page comes from, never whether the scan consumed it.
func checkPooledEqual(t *testing.T, label string, plain, pooled Result) {
	t.Helper()
	checkResultEqual(t, label, plain, pooled)
	if plain.PagesRead != pooled.PagesRead {
		t.Fatalf("%s: PagesRead %d (plain) != %d (pooled)", label, plain.PagesRead, pooled.PagesRead)
	}
}

func TestPrefetchQueryIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	plain, pooled := pooledPair(t, rng, 600, 80, 7, 128)
	ctx := context.Background()
	for qi := 0; qi < 15; qi++ {
		target := randomTarget(rng, 80)
		for _, f := range allSimFuncs() {
			for _, opt := range []QueryOptions{
				{K: 5},
				{K: 1},
				{K: 3, MaxScanFraction: 0.2},
				{K: 5, SortBy: ByCoordSimilarity},
			} {
				r1, err := plain.Query(ctx, target, f, opt)
				if err != nil {
					t.Fatal(err)
				}
				r2, err := pooled.Query(ctx, target, f, opt)
				if err != nil {
					t.Fatal(err)
				}
				checkPooledEqual(t, "pooled query", r1, r2)
			}
		}
	}
}

func TestPrefetchBatchAndMultiIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	plain, pooled := pooledPair(t, rng, 600, 80, 7, 128)
	ctx := context.Background()
	targets := make([]txn.Transaction, 10)
	for i := range targets {
		targets[i] = randomTarget(rng, 80)
	}
	for _, opt := range []QueryOptions{
		{K: 4},
		{K: 2, MaxScanFraction: 0.3},
	} {
		for _, workers := range []int{1, 4} {
			rs1, err := plain.QueryBatch(ctx, targets, simfun.Cosine{}, opt, workers)
			if err != nil {
				t.Fatal(err)
			}
			rs2, err := pooled.QueryBatch(ctx, targets, simfun.Cosine{}, opt, workers)
			if err != nil {
				t.Fatal(err)
			}
			for i := range rs1 {
				checkPooledEqual(t, "pooled batch", rs1[i], rs2[i])
			}
		}
		r1, err := plain.MultiQuery(ctx, targets[:3], simfun.Jaccard{}, opt)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := pooled.MultiQuery(ctx, targets[:3], simfun.Jaccard{}, opt)
		if err != nil {
			t.Fatal(err)
		}
		checkPooledEqual(t, "pooled multi", r1, r2)
	}
}

// TestPrefetchMutationIdentity: queries through a sequence of snapshot
// inserts and deletes on a pooled table must stay identical to the
// poolless twin's — inserts flush fresh pages the pool has never seen,
// next to pages it still holds.
func TestPrefetchMutationIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	d := randomDataset(rng, 400, 60)
	d2 := txn.NewDataset(d.UniverseSize())
	for _, tr := range d.All() {
		d2.Append(tr)
	}
	part := randomPartition(t, rng, 60, 6)
	plain := buildTestTable(t, d, part, BuildOptions{PageSize: 256, FlushThreshold: 8})
	pooled := buildTestTable(t, d2, part, BuildOptions{
		PageSize: 256, BufferPoolPages: poolTestPages, FlushThreshold: 8,
	})
	ctx := context.Background()

	check := func(label string) {
		t.Helper()
		for qi := 0; qi < 6; qi++ {
			target := randomTarget(rng, 60)
			r1, err := plain.Query(ctx, target, simfun.Dice{}, QueryOptions{K: 5})
			if err != nil {
				t.Fatal(err)
			}
			r2, err := pooled.Query(ctx, target, simfun.Dice{}, QueryOptions{K: 5})
			if err != nil {
				t.Fatal(err)
			}
			checkPooledEqual(t, label, r1, r2)
		}
	}
	check("pristine")
	for i := 0; i < 40; i++ {
		tr := randomTarget(rng, 60)
		var id1, id2 txn.TID
		plain, id1 = plain.InsertSnapshot(tr)
		pooled, id2 = pooled.InsertSnapshot(tr)
		if id1 != id2 {
			t.Fatal("insert TIDs diverged")
		}
	}
	for i := 0; i < 30; i++ {
		id := txn.TID(rng.Intn(400))
		var ok1, ok2 bool
		plain, ok1 = plain.DeleteSnapshot(id)
		pooled, ok2 = pooled.DeleteSnapshot(id)
		if ok1 != ok2 {
			t.Fatal("delete outcomes diverged")
		}
	}
	check("mutated")
}

// TestFileBackedCoalescingReducesBackendReads is the end-to-end syscall
// acceptance at the core layer: cold branch-and-bound queries over a
// file-backed table must need at least 25% fewer backend reads than
// pages missed, courtesy of run coalescing.
func TestFileBackedCoalescingReducesBackendReads(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	// Few signatures over a small universe: a handful of entries, each
	// holding hundreds of transactions whose lists span many
	// consecutive pages — the shape run coalescing feeds on.
	d := randomDataset(rng, 4000, 40)
	part := randomPartition(t, rng, 40, 4)
	tbl := buildTestTable(t, d, part, BuildOptions{
		PageSize: 128,
		PageFile: filepath.Join(t.TempDir(), "pages.dat"),
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
