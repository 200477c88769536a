package core

import (
	"context"
	"math/rand"
	"testing"

	"sigtable/internal/simfun"
	"sigtable/internal/txn"
)

// Cross-format identity: a table built under the v1 page layout and a
// table built under the block-compressed v2 layout must answer every
// query identically — same neighbors, same counters, same certificate.
// PagesRead legitimately differs (that is the point of v2), as do
// Workers and EntriesSpeculated (scheduling noise), so those fields are
// excluded.

// checkResultEqual compares the format-independent fields of two
// Results.
func checkResultEqual(t *testing.T, label string, v1, v2 Result) {
	t.Helper()
	if len(v1.Neighbors) != len(v2.Neighbors) {
		t.Fatalf("%s: neighbor count %d (v1) != %d (v2)", label, len(v1.Neighbors), len(v2.Neighbors))
	}
	for i := range v1.Neighbors {
		if v1.Neighbors[i] != v2.Neighbors[i] {
			t.Fatalf("%s: neighbor %d: %+v (v1) != %+v (v2)", label, i, v1.Neighbors[i], v2.Neighbors[i])
		}
	}
	if v1.Scanned != v2.Scanned {
		t.Fatalf("%s: Scanned %d (v1) != %d (v2)", label, v1.Scanned, v2.Scanned)
	}
	if v1.EntriesScanned != v2.EntriesScanned {
		t.Fatalf("%s: EntriesScanned %d (v1) != %d (v2)", label, v1.EntriesScanned, v2.EntriesScanned)
	}
	if v1.EntriesPruned != v2.EntriesPruned {
		t.Fatalf("%s: EntriesPruned %d (v1) != %d (v2)", label, v1.EntriesPruned, v2.EntriesPruned)
	}
	if v1.Certified != v2.Certified {
		t.Fatalf("%s: Certified %v (v1) != %v (v2)", label, v1.Certified, v2.Certified)
	}
	if v1.BestPossible != v2.BestPossible {
		t.Fatalf("%s: BestPossible %v (v1) != %v (v2)", label, v1.BestPossible, v2.BestPossible)
	}
}

// crossFormatTables builds the same dataset under both page formats.
func crossFormatTables(t *testing.T, rng *rand.Rand, n, universe, k, pageSize int) (*Table, *Table, *txn.Dataset) {
	t.Helper()
	d := randomDataset(rng, n, universe)
	part := randomPartition(t, rng, universe, k)
	t1 := buildTestTable(t, d, part, BuildOptions{PageSize: pageSize, PageFormat: 1})
	t2 := buildTestTable(t, d, part, BuildOptions{PageSize: pageSize, PageFormat: 2})
	return t1, t2, d
}

func TestCrossFormatQueryIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, cfg := range []struct {
		name                  string
		n, universe, k, pages int
	}{
		{"small-page", 400, 60, 6, 128},
		{"large-page", 800, 120, 8, 4096},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			t1, t2, _ := crossFormatTables(t, rng, cfg.n, cfg.universe, cfg.k, cfg.pages)
			ctx := context.Background()
			for qi := 0; qi < 20; qi++ {
				target := randomTarget(rng, cfg.universe)
				for _, f := range allSimFuncs() {
					for _, opt := range []QueryOptions{
						{K: 5},
						{K: 3, MaxScanFraction: 0.2},
						{K: 5, SortBy: ByCoordSimilarity},
						{K: 2, MaxScanFraction: 0.1},
						{K: 4, MaxScanFraction: 0.1, SortBy: ByCoordSimilarity},
					} {
						r1, err := t1.Query(ctx, target, f, opt)
						if err != nil {
							t.Fatal(err)
						}
						r2, err := t2.Query(ctx, target, f, opt)
						if err != nil {
							t.Fatal(err)
						}
						checkResultEqual(t, "query", r1, r2)
					}
				}
			}
		})
	}
}

func TestCrossFormatBatchIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	t1, t2, _ := crossFormatTables(t, rng, 600, 80, 7, 512)
	ctx := context.Background()
	targets := make([]txn.Transaction, 12)
	for i := range targets {
		targets[i] = randomTarget(rng, 80)
	}
	for _, workers := range []int{1, 4} {
		rs1, err := t1.QueryBatch(ctx, targets, simfun.Cosine{}, QueryOptions{K: 4}, workers)
		if err != nil {
			t.Fatal(err)
		}
		rs2, err := t2.QueryBatch(ctx, targets, simfun.Cosine{}, QueryOptions{K: 4}, workers)
		if err != nil {
			t.Fatal(err)
		}
		for i := range rs1 {
			checkResultEqual(t, "batch", rs1[i], rs2[i])
		}
	}
}

func TestCrossFormatRangeIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	t1, t2, _ := crossFormatTables(t, rng, 600, 80, 7, 512)
	ctx := context.Background()
	for qi := 0; qi < 10; qi++ {
		target := randomTarget(rng, 80)
		constraints := []RangeConstraint{
			{F: simfun.Cosine{}, Threshold: 0.3},
			{F: simfun.Match{}, Threshold: 1},
		}
		for _, par := range []int{1, 4} {
			r1, err := t1.RangeQuery(ctx, target, constraints, RangeOptions{Parallelism: par})
			if err != nil {
				t.Fatal(err)
			}
			r2, err := t2.RangeQuery(ctx, target, constraints, RangeOptions{Parallelism: par})
			if err != nil {
				t.Fatal(err)
			}
			if len(r1.TIDs) != len(r2.TIDs) {
				t.Fatalf("range: %d TIDs (v1) != %d (v2)", len(r1.TIDs), len(r2.TIDs))
			}
			for i := range r1.TIDs {
				if r1.TIDs[i] != r2.TIDs[i] {
					t.Fatalf("range: TID %d: %d (v1) != %d (v2)", i, r1.TIDs[i], r2.TIDs[i])
				}
			}
			if r1.Scanned != r2.Scanned || r1.EntriesScanned != r2.EntriesScanned || r1.EntriesPruned != r2.EntriesPruned {
				t.Fatalf("range counters differ: v1 %+v, v2 %+v", r1, r2)
			}
		}
	}
}

func TestCrossFormatMultiTargetIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	t1, t2, _ := crossFormatTables(t, rng, 600, 80, 7, 512)
	ctx := context.Background()
	for qi := 0; qi < 10; qi++ {
		targets := []txn.Transaction{randomTarget(rng, 80), randomTarget(rng, 80), randomTarget(rng, 80)}
		r1, err := t1.MultiQuery(ctx, targets, simfun.Jaccard{}, QueryOptions{K: 5})
		if err != nil {
			t.Fatal(err)
		}
		r2, err := t2.MultiQuery(ctx, targets, simfun.Jaccard{}, QueryOptions{K: 5})
		if err != nil {
			t.Fatal(err)
		}
		checkResultEqual(t, "multi", r1, r2)
	}
}

// TestCrossFormatMutationIdentity interleaves inserts and deletes
// (overflow TIDs, tombstones) with queries, then compacts via Rebuild
// and queries again — the whole maintenance lifecycle must stay
// format-independent.
func TestCrossFormatMutationIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	// Each table gets its own dataset copy: Insert appends to the
	// table's dataset, so sharing one would double-append.
	d := randomDataset(rng, 500, 80)
	d2 := txn.NewDataset(d.UniverseSize())
	for _, tr := range d.All() {
		d2.Append(tr)
	}
	part := randomPartition(t, rng, 80, 7)
	t1 := buildTestTable(t, d, part, BuildOptions{PageSize: 512, PageFormat: 1})
	t2 := buildTestTable(t, d2, part, BuildOptions{PageSize: 512, PageFormat: 2})
	ctx := context.Background()

	check := func(label string) {
		t.Helper()
		for qi := 0; qi < 8; qi++ {
			target := randomTarget(rng, 80)
			r1, err := t1.Query(ctx, target, simfun.Cosine{}, QueryOptions{K: 5})
			if err != nil {
				t.Fatal(err)
			}
			r2, err := t2.Query(ctx, target, simfun.Cosine{}, QueryOptions{K: 5})
			if err != nil {
				t.Fatal(err)
			}
			checkResultEqual(t, label, r1, r2)
		}
	}

	check("pristine")

	for i := 0; i < 60; i++ {
		tr := randomTarget(rng, 80)
		var id1, id2 txn.TID
		t1, id1 = t1.InsertSnapshot(tr)
		t2, id2 = t2.InsertSnapshot(tr)
		if id1 != id2 {
			t.Fatalf("insert %d: TID %d (v1) != %d (v2)", i, id1, id2)
		}
	}
	for i := 0; i < 40; i++ {
		id := txn.TID(rng.Intn(d.Len()))
		var ok1, ok2 bool
		t1, ok1 = t1.DeleteSnapshot(id)
		t2, ok2 = t2.DeleteSnapshot(id)
		if ok1 != ok2 {
			t.Fatalf("delete %d: %v (v1) != %v (v2)", id, ok1, ok2)
		}
	}
	check("mutated")

	r1, err := t1.Rebuild()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := t2.Rebuild()
	if err != nil {
		t.Fatal(err)
	}
	if got := r1.store.Format(); got != 1 {
		t.Fatalf("v1 rebuild format = %v, want v1", got)
	}
	if got := r2.store.Format(); got != 2 {
		t.Fatalf("v2 rebuild format = %v, want v2", got)
	}
	t1, t2 = r1, r2
	check("rebuilt")
}

// TestCrossFormatDecodeCacheIdentity runs the same queries with a
// decode cache attached to both stores: the cached path must not
// change any result either.
func TestCrossFormatDecodeCacheIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	d := randomDataset(rng, 500, 80)
	part := randomPartition(t, rng, 80, 7)
	t1 := buildTestTable(t, d, part, BuildOptions{PageSize: 512, PageFormat: 1, DecodeCacheBytes: 1 << 20})
	t2 := buildTestTable(t, d, part, BuildOptions{PageSize: 512, PageFormat: 2, DecodeCacheBytes: 1 << 20})
	ctx := context.Background()
	for qi := 0; qi < 15; qi++ {
		target := randomTarget(rng, 80)
		// Two passes: cold cache, then warm.
		for pass := 0; pass < 2; pass++ {
			r1, err := t1.Query(ctx, target, simfun.Dice{}, QueryOptions{K: 4})
			if err != nil {
				t.Fatal(err)
			}
			r2, err := t2.Query(ctx, target, simfun.Dice{}, QueryOptions{K: 4})
			if err != nil {
				t.Fatal(err)
			}
			checkResultEqual(t, "cached", r1, r2)
		}
	}
}
