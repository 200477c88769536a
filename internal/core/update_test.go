package core

import (
	"context"
	"math/rand"
	"testing"

	"sigtable/internal/seqscan"
	"sigtable/internal/signature"
	"sigtable/internal/simfun"
	"sigtable/internal/txn"
)

func TestInsertAppearsInQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := randomDataset(rng, 200, 30)
	table := buildTestTable(t, d, randomPartition(t, rng, 30, 5), BuildOptions{})

	novel := txn.New(0, 7, 14, 21, 28)
	table, _ = table.InsertSnapshot(novel)
	if table.Live() != 201 {
		t.Fatalf("Live = %d", table.Live())
	}

	gotID, v, err := table.Nearest(context.Background(), novel, simfun.Jaccard{})
	if err != nil {
		t.Fatal(err)
	}
	if v != 1 {
		t.Fatalf("inserted transaction not found exactly: value %v", v)
	}
	if !table.Dataset().Get(gotID).Equal(novel) {
		t.Fatalf("nearest is %v", table.Dataset().Get(gotID))
	}
}

// TestInsertMatchesRebuilt: a table maintained by inserts answers
// exactly like one built from scratch over the same data.
func TestInsertMatchesRebuilt(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d := randomDataset(rng, 300, 30)
	part := randomPartition(t, rng, 30, 5)

	// Build over the first 200, insert the remaining 100.
	prefix := txn.NewDataset(30)
	for i := 0; i < 200; i++ {
		prefix.Append(d.Get(txn.TID(i)))
	}
	incremental := buildTestTable(t, prefix, part, BuildOptions{})
	for i := 200; i < 300; i++ {
		incremental, _ = incremental.InsertSnapshot(d.Get(txn.TID(i)))
	}
	scratch := buildTestTable(t, d, part, BuildOptions{})

	for q := 0; q < 15; q++ {
		target := randomTarget(rng, 30)
		for _, f := range allSimFuncs() {
			a, err := incremental.Query(context.Background(), target, f, QueryOptions{K: 5})
			if err != nil {
				t.Fatal(err)
			}
			b, err := scratch.Query(context.Background(), target, f, QueryOptions{K: 5})
			if err != nil {
				t.Fatal(err)
			}
			for i := range a.Neighbors {
				if a.Neighbors[i].Value != b.Neighbors[i].Value {
					t.Fatalf("%s: incremental %v vs scratch %v", f.Name(), a.Neighbors, b.Neighbors)
				}
			}
		}
	}
}

// TestInsertDiskModeOverflow: inserts after a disk-mode build land in
// the overflow and are still found.
func TestInsertDiskModeOverflow(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := randomDataset(rng, 300, 30)
	table := buildTestTable(t, d, randomPartition(t, rng, 30, 5), BuildOptions{PageSize: 256})

	novel := txn.New(1, 8, 15, 22)
	table, _ = table.InsertSnapshot(novel)
	_, v, err := table.Nearest(context.Background(), novel, simfun.Dice{})
	if err != nil {
		t.Fatal(err)
	}
	if v != 1 {
		t.Fatalf("overflow insert not found: value %v", v)
	}
}

func TestDeleteHidesTransaction(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	d := randomDataset(rng, 200, 30)
	table := buildTestTable(t, d, randomPartition(t, rng, 30, 5), BuildOptions{})

	target := d.Get(50).Clone()
	// Delete every exact duplicate of the target.
	for i := 0; i < d.Len(); i++ {
		if d.Get(txn.TID(i)).Equal(target) {
			var ok bool
			if table, ok = table.DeleteSnapshot(txn.TID(i)); !ok {
				t.Fatalf("DeleteSnapshot(%d) failed", i)
			}
		}
	}
	if table.IsDeleted(50) != true {
		t.Fatal("IsDeleted(50) = false")
	}

	_, v, err := table.Nearest(context.Background(), target, simfun.Jaccard{})
	if err != nil {
		t.Fatal(err)
	}
	if v == 1 {
		t.Fatal("deleted transaction still surfaces as exact match")
	}

	// Double delete and out-of-range delete report false.
	if _, ok := table.DeleteSnapshot(50); ok {
		t.Fatal("double delete reported true")
	}
	if _, ok := table.DeleteSnapshot(txn.TID(d.Len() + 10)); ok {
		t.Fatal("out-of-range delete reported true")
	}
}

// TestDeleteMatchesOracle: queries over a table with tombstones agree
// with a seqscan over the surviving transactions.
func TestDeleteMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d := randomDataset(rng, 400, 30)
	table := buildTestTable(t, d, randomPartition(t, rng, 30, 5), BuildOptions{})

	// Tombstone a random third.
	alive := txn.NewDataset(30)
	for i := 0; i < d.Len(); i++ {
		if rng.Intn(3) == 0 {
			table, _ = table.DeleteSnapshot(txn.TID(i))
		} else {
			alive.Append(d.Get(txn.TID(i)))
		}
	}
	if table.Live() != alive.Len() {
		t.Fatalf("Live = %d, want %d", table.Live(), alive.Len())
	}

	for q := 0; q < 10; q++ {
		target := randomTarget(rng, 30)
		for _, f := range allSimFuncs() {
			res, err := table.Query(context.Background(), target, f, QueryOptions{K: 3})
			if err != nil {
				t.Fatal(err)
			}
			want := seqscan.KNearest(alive, target, f, 3)
			for i := range want {
				if res.Neighbors[i].Value != want[i].Value {
					t.Fatalf("%s: with tombstones %v, oracle %v", f.Name(), res.Neighbors, want)
				}
			}
		}
	}
}

func TestRebuildCompacts(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	d := randomDataset(rng, 300, 30)
	table := buildTestTable(t, d, randomPartition(t, rng, 30, 5), BuildOptions{})

	for i := 0; i < 100; i++ {
		table, _ = table.DeleteSnapshot(txn.TID(i))
	}
	table, _ = table.InsertSnapshot(txn.New(2, 4, 6))

	fresh, err := table.Rebuild()
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Live() != table.Live() {
		t.Fatalf("rebuild live %d, want %d", fresh.Live(), table.Live())
	}
	if fresh.Dataset().Len() != table.Live() {
		t.Fatalf("rebuild dataset %d, want dense %d", fresh.Dataset().Len(), table.Live())
	}

	// Same answers afterwards.
	target := randomTarget(rng, 30)
	_, a, err := table.Nearest(context.Background(), target, simfun.Jaccard{})
	if err != nil {
		t.Fatal(err)
	}
	_, b, err := fresh.Nearest(context.Background(), target, simfun.Jaccard{})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("rebuild changed the answer: %v vs %v", a, b)
	}
}

func TestInsertCreatesNewEntry(t *testing.T) {
	d := txn.NewDataset(4)
	d.Append(txn.New(0))
	sets := [][]txn.Item{{0}, {1}, {2}, {3}}
	part, err := signature.NewPartition(4, sets)
	if err != nil {
		t.Fatal(err)
	}
	table := buildTestTable(t, d, part, BuildOptions{})
	if table.NumEntries() != 1 {
		t.Fatalf("entries = %d", table.NumEntries())
	}
	table, _ = table.InsertSnapshot(txn.New(3))
	if table.NumEntries() != 2 {
		t.Fatalf("entries after insert = %d", table.NumEntries())
	}
	// Entries remain sorted by coordinate.
	es := table.Entries()
	for i := 1; i < len(es); i++ {
		if es[i-1].Coord >= es[i].Coord {
			t.Fatal("entries out of order after insert")
		}
	}
}
