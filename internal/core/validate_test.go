package core

import (
	"math/rand"
	"strings"
	"testing"

	"sigtable/internal/txn"
)

func TestValidateFreshTable(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, pageSize := range []int{0, 256} {
		d := randomDataset(rng, 400, 30)
		table := buildTestTable(t, d, randomPartition(t, rng, 30, 5), BuildOptions{PageSize: pageSize})
		if err := table.Validate(); err != nil {
			t.Fatalf("pageSize=%d: %v", pageSize, err)
		}
	}
}

func TestValidateAfterMaintenance(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d := randomDataset(rng, 300, 30)
	table := buildTestTable(t, d, randomPartition(t, rng, 30, 5), BuildOptions{})

	for i := 0; i < 50; i++ {
		table, _ = table.InsertSnapshot(randomTarget(rng, 30))
	}
	for i := 0; i < 80; i++ {
		table, _ = table.DeleteSnapshot(txn.TID(rng.Intn(table.Dataset().Len())))
	}
	if err := table.Validate(); err != nil {
		t.Fatal(err)
	}
	fresh, err := table.Rebuild()
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateDetectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := randomDataset(rng, 200, 30)
	table := buildTestTable(t, d, randomPartition(t, rng, 30, 5), BuildOptions{})

	// Corrupt a count.
	table.entries[0].Count++
	if err := table.Validate(); err == nil {
		t.Fatal("count corruption not detected")
	}
	table.entries[0].Count--

	// Move a TID to the wrong entry.
	a, b := table.entries[0], table.entries[1]
	stolen := b.tids[0]
	b.tids = b.tids[1:]
	b.Count--
	a.tids = append(a.tids, stolen)
	a.Count++
	if err := table.Validate(); err == nil {
		t.Fatal("misfiled transaction not detected")
	}
}

func TestOccupancyHistogram(t *testing.T) {
	d := txn.NewDataset(4)
	for i := 0; i < 5; i++ {
		d.Append(txn.New(0)) // one entry with 5 txns
	}
	d.Append(txn.New(1)) // one entry with 1 txn
	table := buildTestTable(t, d, randomPartition(t, rand.New(rand.NewSource(1)), 4, 4), BuildOptions{})

	// Partition is random, but items 0 and 1 land in distinct
	// signatures (4 signatures over 4 items), so: one entry of size 5
	// (bucket <=8) and one of size 1 (bucket <=1).
	h := table.OccupancyHistogram()
	total := 0
	for _, b := range h {
		total += b.Transactions
	}
	if total != 6 {
		t.Fatalf("histogram covers %d transactions, want 6", total)
	}
	for i := 1; i < len(h); i++ {
		if h[i-1].MaxCount >= h[i].MaxCount {
			t.Fatal("histogram buckets not sorted")
		}
	}

	s := FormatHistogram(h)
	if !strings.Contains(s, "entry size") || !strings.Contains(s, "#") {
		t.Fatalf("FormatHistogram:\n%s", s)
	}
}
