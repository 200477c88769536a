package core

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"sigtable/internal/simfun"
	"sigtable/internal/txn"
)

// forceScoreFan drops the candidate-count gate so the batch engine's
// scoring fan-out runs on small test fixtures.
func forceScoreFan(t testing.TB) {
	old := minBatchScoreFan
	minBatchScoreFan = 0
	t.Cleanup(func() { minBatchScoreFan = old })
}

// TestQuickBatchMatchesSerial is the tentpole property: for arbitrary
// datasets, partitions, similarity functions, k, entry orderings, scan
// budgets, batch sizes, storage modes (memory / disk / disk+decode
// cache) and scoring worker counts, every result of a shared-scan
// batch is byte-identical to a serial Table.Query of that target.
func TestQuickBatchMatchesSerial(t *testing.T) {
	forceScoreFan(t)
	prop := func(seed int64, kRaw, fRaw, kNNRaw, sortRaw, fracRaw, batchRaw, workersRaw, diskRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		universe := 15 + rng.Intn(30)
		d := randomDataset(rng, 100+rng.Intn(300), universe)
		part := randomPartition(t, rng, universe, 2+int(kRaw)%8)
		bopt := BuildOptions{}
		switch diskRaw % 3 {
		case 0:
			bopt.PageSize = 256
		case 1:
			bopt.PageSize = 256
			bopt.DecodeCacheBytes = 1 << 20
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
		targets := make([]txn.Transaction, 1+int(batchRaw)%8)
		for i := range targets {
			targets[i] = randomTarget(rng, universe)
		}

		serial := make([]Result, len(targets))
		for i, tgt := range targets {
			serial[i], err = table.Query(context.Background(), tgt, f, opt)
			if err != nil {
				return false
			}
		}
		for _, workers := range []int{1, 2 + int(workersRaw)%6} {
			batch, err := table.QueryBatch(context.Background(), targets, f, opt, workers)
			if err != nil {
				return false
			}
			if len(batch) != len(targets) {
				return false
			}
			var batchPages, serialPages int64
			for i := range targets {
				if !sameResult(t, serial[i], batch[i]) {
					t.Logf("target %d of %d, workers=%d opt=%+v", i, len(targets), workers, opt)
					return false
				}
				batchPages += batch[i].PagesRead
				serialPages += serial[i].PagesRead
			}
			// On a full search the shared scan may only remove page
			// fetches, never add (each decoded entry is a subset of what
			// some serial query scanned). Under a scan budget the serial
			// loop can stop mid-entry while the shared decode always
			// completes one, so the comparison only holds un-budgeted.
			// (With the decode cache attached the serial baseline itself
			// warms the cache, so both sides can be zero.)
			if opt.MaxScanFraction == 0 && batchPages > serialPages {
				t.Logf("batch read more pages (%d) than %d serial queries (%d)", batchPages, len(targets), serialPages)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickBatchMatchesSerialAfterUpdates extends the identity to
// tables mutated after build: inserts sitting in the overflow lists and
// tombstoned deletes must flow through the shared scan identically.
func TestQuickBatchMatchesSerialAfterUpdates(t *testing.T) {
	prop := func(seed int64, fRaw, batchRaw, diskRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		universe := 20 + rng.Intn(20)
		d := randomDataset(rng, 150+rng.Intn(150), universe)
		part := randomPartition(t, rng, universe, 5)
		bopt := BuildOptions{}
		if diskRaw%2 == 0 {
			bopt.PageSize = 256
			bopt.DecodeCacheBytes = 1 << 20
		}
		table, err := Build(d, part, bopt)
		if err != nil {
			return false
		}
		for i := 0; i < 20; i++ {
			table, _ = table.InsertSnapshot(randomTarget(rng, universe))
		}
		for i := 0; i < 30; i++ {
			table, _ = table.DeleteSnapshot(txn.TID(rng.Intn(table.Len())))
		}
		fs := allSimFuncs()
		f := fs[int(fRaw)%len(fs)]
		opt := QueryOptions{K: 3}
		targets := make([]txn.Transaction, 2+int(batchRaw)%6)
		for i := range targets {
			targets[i] = randomTarget(rng, universe)
		}

		batch, err := table.QueryBatch(context.Background(), targets, f, opt, 1)
		if err != nil {
			return false
		}
		for i, tgt := range targets {
			serial, err := table.Query(context.Background(), tgt, f, opt)
			if err != nil {
				return false
			}
			if !sameResult(t, serial, batch[i]) {
				t.Logf("target %d after updates", i)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestBatchSharedScanSavesPages: identical targets must share every
// entry decode — the batch's summed PagesRead equals ONE serial query's,
// not N times it. This is the mechanism behind the PR's headline bench.
func TestBatchSharedScanSavesPages(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	universe := 30
	d := randomDataset(rng, 1000, universe)
	part := randomPartition(t, rng, universe, 6)
	table := buildTestTable(t, d, part, BuildOptions{PageSize: 256})
	target := randomTarget(rng, universe)

	serial, err := table.Query(context.Background(), target, simfun.Jaccard{}, QueryOptions{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if serial.PagesRead == 0 {
		t.Fatal("fixture query read no pages; test is vacuous")
	}

	const n = 8
	targets := make([]txn.Transaction, n)
	for i := range targets {
		targets[i] = target
	}
	batch, err := table.QueryBatch(context.Background(), targets, simfun.Jaccard{}, QueryOptions{K: 3}, 1)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for i := range batch {
		if !sameResult(t, serial, batch[i]) {
			t.Fatalf("batch slot %d differs from serial", i)
		}
		total += batch[i].PagesRead
	}
	if total != serial.PagesRead {
		t.Fatalf("batch of %d identical targets read %d pages, want %d (one shared scan)", n, total, serial.PagesRead)
	}
}

// TestBatchCancellation: per-target interruption semantics — a batch
// whose context dies mid-flight leaves unfinished targets Interrupted
// with sane partials, and a completed slot must equal its serial run.
func TestBatchCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	universe := 40
	d := randomDataset(rng, 3000, universe)
	part := randomPartition(t, rng, universe, 8)
	table := buildTestTable(t, d, part, BuildOptions{})
	targets := make([]txn.Transaction, 6)
	for i := range targets {
		targets[i] = randomTarget(rng, universe)
	}
	opt := QueryOptions{K: 3}

	// Already-dead context: every slot interrupted, zero work.
	res, err := table.QueryBatch(cancelledContext(), targets, simfun.Jaccard{}, opt, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if !r.Interrupted || r.Scanned != 0 || r.Certified {
			t.Fatalf("slot %d did work under a dead context: %+v", i, r)
		}
	}

	// Cancellation racing the batch at varying points.
	for i := 0; i < 20; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		timer := time.AfterFunc(time.Duration(i)*30*time.Microsecond, cancel)
		res, err := table.QueryBatch(ctx, targets, simfun.Jaccard{}, opt, 1)
		timer.Stop()
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		for j, r := range res {
			if r.Scanned > d.Len() {
				t.Fatalf("slot %d scanned %d > dataset size %d", j, r.Scanned, d.Len())
			}
			for _, nb := range r.Neighbors {
				if nb.Value > r.BestPossible {
					t.Fatalf("slot %d neighbor value %v above BestPossible %v", j, nb.Value, r.BestPossible)
				}
			}
			if !r.Interrupted {
				serial, err := table.Query(context.Background(), targets[j], simfun.Jaccard{}, opt)
				if err != nil {
					t.Fatal(err)
				}
				if !sameResult(t, serial, r) {
					t.Fatalf("uninterrupted slot %d differs from serial", j)
				}
			}
		}
	}
}

// TestBatchEmptyInputs: zero targets and an empty table are answered
// without touching the engine.
func TestBatchEmptyInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	universe := 20
	d := randomDataset(rng, 100, universe)
	part := randomPartition(t, rng, universe, 4)
	table := buildTestTable(t, d, part, BuildOptions{})

	res, err := table.QueryBatch(context.Background(), nil, simfun.Jaccard{}, QueryOptions{}, 1)
	if err != nil || len(res) != 0 {
		t.Fatalf("empty batch: res=%v err=%v", res, err)
	}

	empty := buildTestTable(t, txn.NewDataset(universe), part, BuildOptions{})
	res, err = empty.QueryBatch(context.Background(), []txn.Transaction{randomTarget(rng, universe)}, simfun.Jaccard{}, QueryOptions{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || !res[0].Certified || len(res[0].Neighbors) != 0 {
		t.Fatalf("empty table batch: %+v", res)
	}

	if _, err := table.QueryBatch(context.Background(), []txn.Transaction{randomTarget(rng, universe)}, simfun.Jaccard{}, QueryOptions{K: -1}, 1); err == nil {
		t.Fatal("invalid options accepted")
	}
}
