package core

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"sigtable/internal/seqscan"
	"sigtable/internal/simfun"
	"sigtable/internal/txn"
)

// TestRangeQueryMatchesSeqscan: the index's range query must return
// exactly the brute-force answer for single and conjunctive
// constraints.
func TestRangeQueryMatchesSeqscan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 8; trial++ {
		universe := 20 + rng.Intn(30)
		d := randomDataset(rng, 300, universe)
		part := randomPartition(t, rng, universe, 3+rng.Intn(5))
		table := buildTestTable(t, d, part, BuildOptions{ActivationThreshold: 1 + rng.Intn(2)})

		for q := 0; q < 8; q++ {
			target := randomTarget(rng, universe)
			constraintSets := [][]RangeConstraint{
				{{F: simfun.Match{}, Threshold: float64(1 + rng.Intn(4))}},
				{{F: simfun.Jaccard{}, Threshold: 0.2 + rng.Float64()*0.5}},
				{
					{F: simfun.Match{}, Threshold: 2},
					{F: simfun.Hamming{}, Threshold: 1.0 / float64(1+5+rng.Intn(10))},
				},
				{
					{F: simfun.Cosine{}, Threshold: 0.3},
					{F: simfun.Dice{}, Threshold: 0.3},
				},
			}
			for ci, cs := range constraintSets {
				res, err := table.RangeQuery(context.Background(), target, cs, RangeOptions{})
				if err != nil {
					t.Fatal(err)
				}
				fs := make([]simfun.Func, len(cs))
				ths := make([]float64, len(cs))
				for i, c := range cs {
					fs[i] = c.F
					ths[i] = c.Threshold
				}
				want := seqscan.Range(d, target, fs, ths)
				if len(res.TIDs) != len(want) {
					t.Fatalf("trial %d constraint set %d: %d matches, want %d (target %v)",
						trial, ci, len(res.TIDs), len(want), target)
				}
				for i := range want {
					if res.TIDs[i] != want[i] {
						t.Fatalf("trial %d: TIDs %v, want %v", trial, res.TIDs, want)
					}
				}
			}
		}
	}
}

func TestRangeQueryValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d := randomDataset(rng, 50, 20)
	table := buildTestTable(t, d, randomPartition(t, rng, 20, 3), BuildOptions{})

	if _, err := table.RangeQuery(context.Background(), txn.New(1), nil, RangeOptions{}); err == nil {
		t.Error("empty constraints accepted")
	}
	if _, err := table.RangeQuery(context.Background(), txn.New(1), []RangeConstraint{{F: nil, Threshold: 1}}, RangeOptions{}); err == nil {
		t.Error("nil similarity function accepted")
	}
}

// TestRangeQueryPrunes: a threshold no transaction reaches must prune
// entries rather than scan everything.
func TestRangeQueryPrunes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := randomDataset(rng, 500, 30)
	table := buildTestTable(t, d, randomPartition(t, rng, 30, 6), BuildOptions{})

	res, err := table.RangeQuery(context.Background(), randomTarget(rng, 30), []RangeConstraint{
		{F: simfun.Match{}, Threshold: 1000}, // unattainable
	}, RangeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TIDs) != 0 {
		t.Fatalf("impossible threshold matched %d transactions", len(res.TIDs))
	}
	if res.Scanned != 0 {
		t.Fatalf("impossible threshold still scanned %d transactions", res.Scanned)
	}
	if res.EntriesPruned != table.NumEntries() {
		t.Fatalf("pruned %d of %d entries", res.EntriesPruned, table.NumEntries())
	}
}

// forceParallel drops the live-size gate so the parallel range scan
// runs on small test fixtures, restoring it when the test finishes.
func forceParallel(t testing.TB) {
	old := minParallelLive
	minParallelLive = 0
	t.Cleanup(func() { minParallelLive = old })
}

// TestQuickParallelRangeMatchesSerial: the range scan partitions
// entries instead of replaying an order, but its merged result must
// still be identical to the serial scan's.
func TestQuickParallelRangeMatchesSerial(t *testing.T) {
	forceParallel(t)
	prop := func(seed int64, thRaw, workersRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		universe := 20 + rng.Intn(20)
		d := randomDataset(rng, 150+rng.Intn(300), universe)
		part := randomPartition(t, rng, universe, 5)
		table, err := Build(d, part, BuildOptions{})
		if err != nil {
			return false
		}
		target := randomTarget(rng, universe)
		cs := []RangeConstraint{
			{F: simfun.Match{}, Threshold: float64(1 + int(thRaw)%4)},
			{F: simfun.Jaccard{}, Threshold: 0.05},
		}

		serial, err := table.RangeQuery(context.Background(), target, cs, RangeOptions{Parallelism: 1})
		if err != nil {
			return false
		}
		parallel, err := table.RangeQuery(context.Background(), target, cs, RangeOptions{Parallelism: 2 + int(workersRaw)%6})
		if err != nil {
			return false
		}
		if len(serial.TIDs) != len(parallel.TIDs) {
			return false
		}
		for i := range serial.TIDs {
			if serial.TIDs[i] != parallel.TIDs[i] {
				return false
			}
		}
		return serial.Scanned == parallel.Scanned &&
			serial.EntriesScanned == parallel.EntriesScanned &&
			serial.EntriesPruned == parallel.EntriesPruned
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestParallelCancellation: the parallel range scan — the one search
// in this package that fans out over goroutines — must honor context
// cancellation before it starts and at arbitrary points mid-flight,
// returning a sane partial result without deadlocking or leaking
// workers. A run the cancellation missed must equal the serial scan.
func TestParallelCancellation(t *testing.T) {
	forceParallel(t)
	rng := rand.New(rand.NewSource(11))
	universe := 40
	d := randomDataset(rng, 3000, universe)
	part := randomPartition(t, rng, universe, 8)
	table := buildTestTable(t, d, part, BuildOptions{})
	target := randomTarget(rng, universe)
	cs := []RangeConstraint{{F: simfun.Jaccard{}, Threshold: 0.1}}

	res, err := table.RangeQuery(cancelledContext(), target, cs, RangeOptions{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Interrupted || res.Scanned != 0 {
		t.Fatalf("pre-cancelled parallel range query did work: %+v", res)
	}

	serial, err := table.RangeQuery(context.Background(), target, cs, RangeOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	inSerial := make(map[txn.TID]bool, len(serial.TIDs))
	for _, id := range serial.TIDs {
		inSerial[id] = true
	}
	for i := 0; i < 30; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		timer := time.AfterFunc(time.Duration(i)*20*time.Microsecond, cancel)
		res, err := table.RangeQuery(ctx, target, cs, RangeOptions{Parallelism: 4})
		timer.Stop()
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		if res.Scanned > d.Len() {
			t.Fatalf("scanned %d > dataset size %d", res.Scanned, d.Len())
		}
		for _, id := range res.TIDs {
			if !inSerial[id] {
				t.Fatalf("interrupted=%v result holds %d, which the serial scan rejects", res.Interrupted, id)
			}
		}
		if !res.Interrupted && (len(res.TIDs) != len(serial.TIDs) || res.Scanned != serial.Scanned ||
			res.EntriesScanned != serial.EntriesScanned || res.EntriesPruned != serial.EntriesPruned) {
			t.Fatalf("uninterrupted parallel result differs from serial:\nparallel %+v\nserial   %+v", res, serial)
		}
	}
}
