package sigtable

import (
	"bytes"
	"context"
	"math/rand"
	"testing"
)

func testDataset(t testing.TB, n int, seed int64) *Dataset {
	t.Helper()
	g, err := NewGenerator(GeneratorConfig{UniverseSize: 200, NumItemsets: 300, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return g.Dataset(n)
}

func TestBuildIndexAndQuery(t *testing.T) {
	data := testDataset(t, 3000, 1)
	idx, err := BuildIndex(data, IndexOptions{SignatureCardinality: 10})
	if err != nil {
		t.Fatal(err)
	}
	if idx.K() != 10 || idx.Len() != 3000 {
		t.Fatalf("K=%d Len=%d", idx.K(), idx.Len())
	}
	if idx.NumEntries() == 0 || idx.NumEntries() > 1<<10 {
		t.Fatalf("NumEntries = %d", idx.NumEntries())
	}
	if len(idx.Signatures()) != 10 {
		t.Fatalf("Signatures = %d sets", len(idx.Signatures()))
	}

	target := data.Get(100)
	for _, f := range []SimilarityFunc{HammingSimilarity{}, Cosine{}, Jaccard{}} {
		res, err := idx.Query(context.Background(), target, f, QueryOptions{K: 5})
		if err != nil {
			t.Fatal(err)
		}
		want := ScanKNearest(data, target, f, 5)
		for i := range want {
			if res.Neighbors[i].Value != want[i].Value {
				t.Fatalf("index disagrees with oracle under %T", f)
			}
		}
	}

	tid, v, err := idx.Nearest(context.Background(), target, Dice{})
	if err != nil {
		t.Fatal(err)
	}
	if v != 1 || !data.Get(tid).Equal(target) {
		t.Fatalf("Nearest = (%d, %v)", tid, v)
	}
}

func TestBuildIndexAutoActivation(t *testing.T) {
	// Sparse defaults recommend r = 1; the index must behave exactly
	// like an explicit r = 1 build.
	data := testDataset(t, 2000, 21)
	auto, err := BuildIndex(data, IndexOptions{
		SignatureCardinality: 10,
		ActivationThreshold:  AutoActivation,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := auto.Table().ActivationThreshold(); got < 1 {
		t.Fatalf("auto threshold = %d", got)
	}
	target := data.Get(3)
	_, v, err := auto.Nearest(context.Background(), target, Jaccard{})
	if err != nil {
		t.Fatal(err)
	}
	if v != 1 {
		t.Fatalf("auto-threshold index missed the exact match: %v", v)
	}

	// Dense data must push the recommendation above 1.
	g, err := NewGenerator(GeneratorConfig{UniverseSize: 60, NumItemsets: 100, AvgTxnSize: 40, Seed: 22})
	if err != nil {
		t.Fatal(err)
	}
	dense := g.Dataset(1500)
	denseIdx, err := BuildIndex(dense, IndexOptions{
		SignatureCardinality: 6,
		ActivationThreshold:  AutoActivation,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := denseIdx.Table().ActivationThreshold(); got <= 1 {
		t.Fatalf("dense data auto threshold = %d, want > 1", got)
	}
}

func TestBuildIndexEmptyDataset(t *testing.T) {
	if _, err := BuildIndex(NewDataset(10), IndexOptions{}); err == nil {
		t.Fatal("empty dataset accepted")
	}
}

func TestBuildIndexExplicitPartition(t *testing.T) {
	data := NewDataset(4)
	data.Append(NewTransaction(0, 1))
	data.Append(NewTransaction(2, 3))
	idx, err := BuildIndex(data, IndexOptions{
		Partition: [][]Item{{0, 1}, {2, 3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if idx.K() != 2 {
		t.Fatalf("K = %d", idx.K())
	}

	// An invalid partition must be rejected.
	if _, err := BuildIndex(data, IndexOptions{Partition: [][]Item{{0, 1}}}); err == nil {
		t.Fatal("incomplete partition accepted")
	}
}

func TestBuildIndexDiskMode(t *testing.T) {
	data := testDataset(t, 2000, 2)
	idx, err := BuildIndex(data, IndexOptions{
		SignatureCardinality: 8,
		PageSize:             512,
		BufferPoolPages:      64,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := idx.Query(context.Background(), data.Get(7), Cosine{}, QueryOptions{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.PagesRead == 0 {
		t.Fatal("disk mode counted no page reads")
	}
	_, want := ScanNearest(data, data.Get(7), Cosine{})
	if res.Neighbors[0].Value != want {
		t.Fatal("disk-mode answer differs from oracle")
	}
}

func TestRangeQueryPublic(t *testing.T) {
	data := testDataset(t, 2000, 3)
	idx, err := BuildIndex(data, IndexOptions{SignatureCardinality: 10})
	if err != nil {
		t.Fatal(err)
	}
	target := data.Get(55)
	res, err := idx.RangeQuery(context.Background(), target, []RangeConstraint{
		{F: MatchSimilarity{}, Threshold: float64(target.Len())}, // exact superset matches
	}, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, id := range res.TIDs {
		if id == 55 {
			found = true
		}
		if Match(target, data.Get(id)) < target.Len() {
			t.Fatalf("TID %d does not satisfy the constraint", id)
		}
	}
	if !found {
		t.Fatal("target's own transaction not in range result")
	}
}

func TestMultiQueryPublic(t *testing.T) {
	data := testDataset(t, 2000, 4)
	idx, err := BuildIndex(data, IndexOptions{SignatureCardinality: 10})
	if err != nil {
		t.Fatal(err)
	}
	targets := []Transaction{data.Get(1), data.Get(2)}
	res, err := idx.MultiQuery(context.Background(), targets, Jaccard{}, QueryOptions{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Neighbors) != 3 {
		t.Fatalf("got %d neighbors", len(res.Neighbors))
	}
}

func TestSimilarityByNamePublic(t *testing.T) {
	if _, err := SimilarityByName("cosine"); err != nil {
		t.Fatal(err)
	}
	if _, err := SimilarityByName("nope"); err == nil {
		t.Fatal("unknown similarity accepted")
	}
}

// badSim violates monotonicity; CheckMonotone must reject it through
// the public API.
type badSim struct{}

func (badSim) Score(x, y int) float64 { return float64(y - x) }
func (badSim) Name() string           { return "bad" }

func TestCheckMonotonePublic(t *testing.T) {
	if err := CheckMonotone(badSim{}, 10, 10); err == nil {
		t.Fatal("anti-monotone function passed")
	}
	if err := CheckMonotone(Jaccard{}, 10, 10); err != nil {
		t.Fatal(err)
	}
}

func TestDatasetRoundTripPublic(t *testing.T) {
	data := testDataset(t, 500, 5)
	var buf bytes.Buffer
	if _, err := data.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadDataset(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != data.Len() {
		t.Fatalf("round trip lost transactions: %d vs %d", got.Len(), data.Len())
	}
}

func TestInvertedIndexBaselinePublic(t *testing.T) {
	data := testDataset(t, 2000, 6)
	inv := BuildInvertedIndex(data, InvertedIndexOptions{})
	target := data.Get(9)
	cands, st := inv.KNearest(target, MatchSimilarity{}, 3)
	if len(cands) != 3 {
		t.Fatalf("got %d candidates", len(cands))
	}
	if st.Fraction <= 0 || st.Fraction > 1 {
		t.Fatalf("access fraction = %v", st.Fraction)
	}
	_, want := ScanNearest(data, target, MatchSimilarity{})
	if cands[0].Value != want {
		t.Fatal("inverted index disagrees with oracle on match similarity")
	}
}

// TestEarlyTerminationTradeoff exercises the public early-termination
// path: tighter budgets scan no more than looser ones and never beat
// the optimum.
func TestEarlyTerminationTradeoffPublic(t *testing.T) {
	data := testDataset(t, 5000, 7)
	idx, err := BuildIndex(data, IndexOptions{SignatureCardinality: 12})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	for q := 0; q < 5; q++ {
		items := make([]Item, 1+rng.Intn(8))
		for j := range items {
			items[j] = Item(rng.Intn(200))
		}
		target := NewTransaction(items...)
		_, optimum := ScanNearest(data, target, MatchHammingRatio{})

		prevScanned := 0
		for _, frac := range []float64{0.005, 0.02, 0.1, 1} {
			res, err := idx.Query(context.Background(), target, MatchHammingRatio{}, QueryOptions{K: 1, MaxScanFraction: frac})
			if err != nil {
				t.Fatal(err)
			}
			if res.Neighbors[0].Value > optimum {
				t.Fatal("early answer above optimum")
			}
			if res.Scanned < prevScanned {
				// Looser budgets may stop early via pruning, but can
				// never be forced below a tighter budget's scan count
				// by the budget itself. Both runs prune identically, so
				// scanned is non-decreasing in the budget.
				t.Fatalf("scanned decreased as budget grew: %d -> %d", prevScanned, res.Scanned)
			}
			prevScanned = res.Scanned
		}
	}
}
