package core

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"sigtable/internal/simfun"
	"sigtable/internal/topk"
	"sigtable/internal/txn"
)

// sameResult compares every deterministic Result field. Workers,
// EntriesSpeculated and PagesRead are execution reports, not answers,
// and legitimately differ between engines.
func sameResult(t *testing.T, want, got Result) bool {
	t.Helper()
	if len(want.Neighbors) != len(got.Neighbors) {
		t.Logf("neighbor counts differ: want %d, got %d", len(want.Neighbors), len(got.Neighbors))
		return false
	}
	for i := range want.Neighbors {
		if want.Neighbors[i] != got.Neighbors[i] {
			t.Logf("neighbor %d differs: want %+v, got %+v", i, want.Neighbors[i], got.Neighbors[i])
			return false
		}
	}
	if want.Scanned != got.Scanned ||
		want.EntriesScanned != got.EntriesScanned ||
		want.EntriesPruned != got.EntriesPruned ||
		want.Certified != got.Certified ||
		want.Interrupted != got.Interrupted ||
		want.BestPossible != got.BestPossible {
		t.Logf("cost/certificate fields differ:\nwant %+v\ngot  %+v", want, got)
		return false
	}
	return true
}

// liveDataset copies a table's live transactions into a fresh dataset,
// the input of a sequential-scan oracle.
func liveDataset(tab *Table) *txn.Dataset {
	alive := txn.NewDataset(tab.Dataset().UniverseSize())
	for i, tr := range tab.Dataset().All() {
		if !tab.IsDeleted(txn.TID(i)) {
			alive.Append(tr)
		}
	}
	return alive
}

// checkOracle asserts that a run-to-completion result equals the
// sequential-scan answer rank by rank (values; tied TIDs may differ)
// and carries the optimality certificate.
func checkOracle(t *testing.T, label string, res Result, want []topk.Candidate) {
	t.Helper()
	if !res.Certified || len(res.Neighbors) != len(want) {
		t.Fatalf("%s: certified=%v with %d neighbors, oracle has %d", label, res.Certified, len(res.Neighbors), len(want))
	}
	for i := range want {
		if res.Neighbors[i].Value != want[i].Value {
			t.Fatalf("%s: rank %d value %v, oracle %v", label, i, res.Neighbors[i].Value, want[i].Value)
		}
	}
}

// TestThresholdEncoding: encodeThreshold must preserve the float
// ordering as unsigned integer ordering — the ladder's bucket and radix
// keys rely on it.
func TestThresholdEncoding(t *testing.T) {
	vals := []float64{math.Inf(-1), -1e300, -3.5, -1, -1e-9, math.Copysign(0, -1), 0, 1e-9, 0.25, 1, 3.5, 1e300, math.Inf(1)}
	for i, a := range vals {
		for _, b := range vals[i+1:] {
			if a < b && encodeThreshold(a) >= encodeThreshold(b) {
				t.Fatalf("encoding not monotone: %v < %v but %#x >= %#x", a, b, encodeThreshold(a), encodeThreshold(b))
			}
		}
	}
}

// TestQuickParallelMatchesSerial: queries running in parallel on one
// table share its pooled ranking scratch, ladders and target bitmaps;
// for arbitrary datasets, partitions, similarity functions, k, entry
// orderings, scan budgets and page sizes, each must return exactly the
// answer, cost counters and page reads of its solo run.
func TestQuickParallelMatchesSerial(t *testing.T) {
	prop := func(seed int64, kRaw, fRaw, kNNRaw, sortRaw, fracRaw, workersRaw, diskRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		universe := 15 + rng.Intn(30)
		d := randomDataset(rng, 100+rng.Intn(300), universe)
		part := randomPartition(t, rng, universe, 2+int(kRaw)%8)
		bopt := BuildOptions{}
		if diskRaw%2 == 0 {
			bopt.PageSize = 256
		}
		table, err := Build(d, part, bopt)
		if err != nil {
			return false
		}
		fs := allSimFuncs()
		f := fs[int(fRaw)%len(fs)]
		opt := QueryOptions{K: 1 + int(kNNRaw)%8}
		if sortRaw%2 == 1 {
			opt.SortBy = ByCoordSimilarity
		}
		if fracRaw%3 == 0 {
			opt.MaxScanFraction = 0.01 + float64(fracRaw)/255*0.5
		}
		targets := make([]txn.Transaction, 2+int(workersRaw)%7)
		for i := range targets {
			targets[i] = randomTarget(rng, universe)
		}
		return parallelMatchesSolo(t, len(targets), func(i int) (Result, error) {
			return table.Query(context.Background(), targets[i], f, opt)
		})
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickParallelMultiMatchesSerial extends the property to the
// multi-target average-similarity search, whose ranking goes through
// the eager wrapRanked ladder.
func TestQuickParallelMultiMatchesSerial(t *testing.T) {
	prop := func(seed int64, fRaw, kNNRaw, workersRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		universe := 20 + rng.Intn(20)
		d := randomDataset(rng, 150+rng.Intn(150), universe)
		part := randomPartition(t, rng, universe, 4)
		table, err := Build(d, part, BuildOptions{})
		if err != nil {
			return false
		}
		fs := allSimFuncs()
		f := fs[int(fRaw)%len(fs)]
		opt := QueryOptions{K: 1 + int(kNNRaw)%5}
		sets := make([][]txn.Transaction, 2+int(workersRaw)%5)
		for i := range sets {
			sets[i] = []txn.Transaction{randomTarget(rng, universe), randomTarget(rng, universe), randomTarget(rng, universe)}
		}
		return parallelMatchesSolo(t, len(sets), func(i int) (Result, error) {
			return table.MultiQuery(context.Background(), sets[i], f, opt)
		})
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// parallelMatchesSolo runs search(0..n-1) one at a time, then all at
// once, and reports whether every concurrent result equals its solo
// run, PagesRead included.
func parallelMatchesSolo(t *testing.T, n int, search func(i int) (Result, error)) bool {
	solo := make([]Result, n)
	for i := range solo {
		var err error
		if solo[i], err = search(i); err != nil {
			return false
		}
	}
	got := make([]Result, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = search(i)
		}(i)
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil || !sameResult(t, solo[i], got[i]) {
			t.Logf("search %d: err %v", i, errs[i])
			return false
		}
		if got[i].PagesRead != solo[i].PagesRead {
			t.Logf("search %d: PagesRead %d concurrently, %d alone", i, got[i].PagesRead, solo[i].PagesRead)
			return false
		}
	}
	return true
}

// TestPerQueryPagesRead: PagesRead must be attributed to the query
// that issued the reads even when queries run concurrently — the
// global store counter cannot tell them apart, the per-query one must.
func TestPerQueryPagesRead(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	universe := 30
	d := randomDataset(rng, 800, universe)
	part := randomPartition(t, rng, universe, 6)
	table := buildTestTable(t, d, part, BuildOptions{PageSize: 256})
	targets := make([]txn.Transaction, 8)
	for i := range targets {
		targets[i] = randomTarget(rng, universe)
	}

	// Serial reference per target.
	want := make([]int64, len(targets))
	for i, tgt := range targets {
		res, err := table.Query(context.Background(), tgt, simfun.Jaccard{}, QueryOptions{K: 2})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.PagesRead
	}

	// The same queries, all in flight at once.
	got := make([]int64, len(targets))
	errs := make([]error, len(targets))
	done := make(chan int)
	for i, tgt := range targets {
		go func(i int, tgt txn.Transaction) {
			res, err := table.Query(context.Background(), tgt, simfun.Jaccard{}, QueryOptions{K: 2})
			got[i], errs[i] = res.PagesRead, err
			done <- i
		}(i, tgt)
	}
	for range targets {
		<-done
	}
	for i := range targets {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if got[i] != want[i] {
			t.Errorf("query %d: PagesRead %d under concurrency, %d alone", i, got[i], want[i])
		}
	}
}
