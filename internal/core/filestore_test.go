package core

import (
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"sigtable/internal/simfun"
	"sigtable/internal/txn"
)

// TestFileBackedTable builds a table whose pages live in a real file
// and checks that queries, mutations and Rebuild behave exactly like
// the memory-paged twin — and that Rebuild writes a fresh generation
// file instead of truncating the one in-flight readers still use.
func TestFileBackedTable(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	universe := 30
	dFile := randomDataset(rng, 300, universe)
	dMem := txn.NewDataset(universe)
	for _, tr := range dFile.All() {
		dMem.Append(tr)
	}
	part := randomPartition(t, rng, universe, 5)

	dir := t.TempDir()
	path := filepath.Join(dir, "pages.dat")
	file := buildTestTable(t, dFile, part, BuildOptions{PageSize: 256, PageFile: path})
	mem := buildTestTable(t, dMem, part, BuildOptions{PageSize: 256})
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("page file not created: %v", err)
	}

	f := simfun.Cosine{}
	opt := QueryOptions{K: 5}
	check := func(tgt txn.Transaction) {
		t.Helper()
		want, err := mem.Query(context.Background(), tgt, f, opt)
		if err != nil {
			t.Fatal(err)
		}
		got, err := file.Query(context.Background(), tgt, f, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !sameResult(t, want, got) {
			t.Fatal("file-backed query diverged from memory-paged twin")
		}
	}
	check(randomTarget(rng, universe))

	// Mutate both twins, then rebuild: the file table must compact into
	// pages.dat.g1, leaving the original file intact for the stale table.
	for i := 0; i < 10; i++ {
		tr := randomTarget(rng, universe)
		file, _ = file.InsertSnapshot(tr)
		mem, _ = mem.InsertSnapshot(tr)
	}
	file, _ = file.DeleteSnapshot(3)
	mem, _ = mem.DeleteSnapshot(3)
	check(randomTarget(rng, universe))

	nf, err := file.Rebuild()
	if err != nil {
		t.Fatal(err)
	}
	nm, err := mem.Rebuild()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".g1"); err != nil {
		t.Fatalf("rebuild did not write a generation file: %v", err)
	}
	// The pre-rebuild table still answers from the original file.
	check(randomTarget(rng, universe))
	file, mem = nf, nm
	check(randomTarget(rng, universe))

	// A second rebuild advances the generation rather than stacking
	// suffixes.
	nf2, err := file.Rebuild()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".g2"); err != nil {
		t.Fatalf("second rebuild did not advance the generation: %v", err)
	}
	if err := file.Store().Close(); err != nil {
		t.Fatal(err)
	}
	nm2, err := mem.Rebuild()
	if err != nil {
		t.Fatal(err)
	}
	file, mem = nf2, nm2
	check(randomTarget(rng, universe))

	// Shared-scan batches read the same file store.
	tgt := randomTarget(rng, universe)
	want, err := mem.Query(context.Background(), tgt, f, opt)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := file.QueryBatch(context.Background(), []txn.Transaction{tgt, tgt}, f, opt, 1)
	if err != nil {
		t.Fatal(err)
	}
	for j := range batch {
		if !sameResult(t, want, batch[j]) {
			t.Fatalf("file-backed shared-scan slot %d diverged", j)
		}
	}
}
