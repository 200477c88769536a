package core

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"sigtable/internal/pager"
	"sigtable/internal/seqscan"
	"sigtable/internal/simfun"
	"sigtable/internal/txn"
)

// snapshotVariants are the storage modes the snapshot protocol must
// behave identically under: pure memory, uncompressed v1 pages and
// block-compressed v2 pages (both page formats with a small flush
// threshold so tests exercise the overflow-flush path).
func snapshotVariants() []struct {
	name string
	opt  BuildOptions
} {
	return []struct {
		name string
		opt  BuildOptions
	}{
		{"memory", BuildOptions{}},
		{"disk-v1", BuildOptions{PageSize: 256, PageFormat: pager.FormatV1, FlushThreshold: 4}},
		{"disk-v2", BuildOptions{PageSize: 256, PageFormat: pager.FormatV2, FlushThreshold: 4}},
	}
}

// TestSnapshotInsertIsolation: InsertSnapshot leaves the receiver
// byte-for-byte queryable as it was, while the derived table contains
// the new transaction.
func TestSnapshotInsertIsolation(t *testing.T) {
	for _, v := range snapshotVariants() {
		t.Run(v.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			d := randomDataset(rng, 200, 30)
			table := buildTestTable(t, d, randomPartition(t, rng, 30, 5), v.opt)

			target := randomTarget(rng, 30)
			before, err := table.Query(context.Background(), target, simfun.Jaccard{}, QueryOptions{K: 5})
			if err != nil {
				t.Fatal(err)
			}

			novel := txn.New(0, 7, 14, 21, 28)
			cur := table
			var ids []txn.TID
			for i := 0; i < 10; i++ {
				var id txn.TID
				cur, id = cur.InsertSnapshot(novel)
				ids = append(ids, id)
			}
			if table.Live() != 200 || table.Len() != 200 {
				t.Fatalf("receiver mutated: Live=%d Len=%d", table.Live(), table.Len())
			}
			if cur.Live() != 210 {
				t.Fatalf("derived Live = %d", cur.Live())
			}
			if cur.Version() != table.Version()+10 {
				t.Fatalf("version %d, want %d", cur.Version(), table.Version()+10)
			}
			for i := 1; i < len(ids); i++ {
				if ids[i] != ids[i-1]+1 {
					t.Fatalf("non-contiguous TIDs %v", ids)
				}
			}

			// The old snapshot answers exactly as before the inserts.
			after, err := table.Query(context.Background(), target, simfun.Jaccard{}, QueryOptions{K: 5})
			if err != nil {
				t.Fatal(err)
			}
			if len(after.Neighbors) != len(before.Neighbors) {
				t.Fatalf("old snapshot changed: %v vs %v", after.Neighbors, before.Neighbors)
			}
			for i := range after.Neighbors {
				if after.Neighbors[i] != before.Neighbors[i] {
					t.Fatalf("old snapshot changed at %d: %v vs %v", i, after.Neighbors, before.Neighbors)
				}
			}

			// The derived snapshot surfaces the inserted transaction.
			_, val, err := cur.Nearest(context.Background(), novel, simfun.Jaccard{})
			if err != nil {
				t.Fatal(err)
			}
			if val != 1 {
				t.Fatalf("insert not found in derived snapshot: value %v", val)
			}
			if err := cur.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSnapshotDeleteIsolation: DeleteSnapshot tombstones only in the
// derived table, copies the tombstone array (older readers keep seeing
// the transaction) and reports absent/dead TIDs without publishing.
func TestSnapshotDeleteIsolation(t *testing.T) {
	for _, v := range snapshotVariants() {
		t.Run(v.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(12))
			d := randomDataset(rng, 200, 30)
			table := buildTestTable(t, d, randomPartition(t, rng, 30, 5), v.opt)

			target := d.Get(50).Clone()
			cur := table
			for i := 0; i < d.Len(); i++ {
				if d.Get(txn.TID(i)).Equal(target) {
					nt, ok := cur.DeleteSnapshot(txn.TID(i))
					if !ok {
						t.Fatalf("DeleteSnapshot(%d) refused a live TID", i)
					}
					cur = nt
				}
			}
			if table.Live() != 200 {
				t.Fatalf("receiver mutated: Live=%d", table.Live())
			}
			// Old snapshot still sees the exact match, new one does not.
			_, val, err := table.Nearest(context.Background(), target, simfun.Jaccard{})
			if err != nil {
				t.Fatal(err)
			}
			if val != 1 {
				t.Fatalf("old snapshot lost the transaction: value %v", val)
			}
			_, val, err = cur.Nearest(context.Background(), target, simfun.Jaccard{})
			if err != nil {
				t.Fatal(err)
			}
			if val == 1 {
				t.Fatal("derived snapshot still surfaces the deleted transaction")
			}

			// Dead and out-of-range deletes return the receiver itself.
			if nt, ok := cur.DeleteSnapshot(50); ok || nt != cur {
				t.Fatal("double delete published a snapshot")
			}
			if nt, ok := cur.DeleteSnapshot(txn.TID(d.Len() + 10)); ok || nt != cur {
				t.Fatal("out-of-range delete published a snapshot")
			}
			if err := cur.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSnapshotMatchesOracle: a table maintained by the snapshot
// protocol over a random insert/delete script answers, rank by rank,
// like a sequential scan over its live transactions, in every storage
// mode, with the same cost counters on every repeat of a query.
func TestSnapshotMatchesOracle(t *testing.T) {
	for _, v := range snapshotVariants() {
		t.Run(v.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(13))
			d := randomDataset(rng, 300, 30)
			snap := buildTestTable(t, d, randomPartition(t, rng, 30, 5), v.opt)

			opRng := rand.New(rand.NewSource(14))
			live := 300
			for i := 0; i < 120; i++ {
				if i%4 == 3 {
					id := txn.TID(opRng.Intn(300))
					wasLive := !snap.IsDeleted(id)
					nt, ok := snap.DeleteSnapshot(id)
					if ok != wasLive {
						t.Fatalf("op %d: DeleteSnapshot(%d) = %v, want %v", i, id, ok, wasLive)
					}
					if ok {
						live--
					}
					snap = nt
				} else {
					nt, id := snap.InsertSnapshot(randomTarget(opRng, 30))
					if int(id) != snap.Len() {
						t.Fatalf("op %d: insert TID %d, want %d", i, id, snap.Len())
					}
					live++
					snap = nt
				}
			}
			if snap.Live() != live {
				t.Fatalf("Live = %d, want %d", snap.Live(), live)
			}
			alive := liveDataset(snap)
			for q := 0; q < 15; q++ {
				target := randomTarget(opRng, 30)
				for _, f := range allSimFuncs() {
					a, err := snap.Query(context.Background(), target, f, QueryOptions{K: 5})
					if err != nil {
						t.Fatal(err)
					}
					checkOracle(t, f.Name(), a, seqscan.KNearest(alive, target, f, 5))
					b, err := snap.Query(context.Background(), target, f, QueryOptions{K: 5})
					if err != nil {
						t.Fatal(err)
					}
					if !sameResult(t, a, b) {
						t.Fatalf("%s: repeat query diverges", f.Name())
					}
				}
			}
			if err := snap.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSnapshotOverflowFlush drives one entry's overflow past the flush
// threshold repeatedly and checks the flush lifecycle: pending drains
// into fresh list segments, the counters advance monotonically, older
// snapshots stay readable across the flush, and the flushed table still
// answers exactly.
func TestSnapshotOverflowFlush(t *testing.T) {
	for _, format := range []pager.Format{pager.FormatV1, pager.FormatV2} {
		t.Run(format.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(15))
			d := randomDataset(rng, 200, 30)
			table := buildTestTable(t, d, randomPartition(t, rng, 30, 5),
				BuildOptions{PageSize: 256, PageFormat: format, FlushThreshold: 8})
			if table.FlushThreshold() != 8 {
				t.Fatalf("FlushThreshold = %d", table.FlushThreshold())
			}

			// Hammer one coordinate so its overflow crosses the threshold
			// several times.
			novel := txn.New(3, 9, 27)
			cur := table
			preFlush := cur
			for i := 0; i < 40; i++ {
				cur, _ = cur.InsertSnapshot(novel)
				if cur.OverflowStats().Flushes == 0 {
					preFlush = cur
				}
			}
			st := cur.OverflowStats()
			if st.Flushes == 0 {
				t.Fatalf("no flush after 40 same-entry inserts at threshold 8: %+v", st)
			}
			if st.Transactions != 40 {
				t.Fatalf("overflow transactions = %d, want 40", st.Transactions)
			}
			if st.FlushSeconds <= 0 {
				t.Fatalf("flush seconds not accounted: %+v", st)
			}

			// A pre-flush snapshot still answers over its own state.
			_, val, err := preFlush.Nearest(context.Background(), novel, simfun.Jaccard{})
			if err != nil {
				t.Fatal(err)
			}
			if val != 1 {
				t.Fatalf("pre-flush snapshot lost the inserts: value %v", val)
			}

			// The flushed table finds every copy: a range query at
			// threshold 1 for the exact transaction returns all 40.
			res, err := cur.RangeQuery(context.Background(), novel,
				[]RangeConstraint{{F: simfun.Jaccard{}, Threshold: 1}}, RangeOptions{Parallelism: 1})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.TIDs) != 40 {
				t.Fatalf("flushed table returns %d exact matches, want 40", len(res.TIDs))
			}
			if err := cur.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSnapshotListInvalidation: snapshot mutations evict only the
// mutated entry's cached decode; the global generation never moves.
func TestSnapshotListInvalidation(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	d := randomDataset(rng, 300, 30)
	table := buildTestTable(t, d, randomPartition(t, rng, 30, 5),
		BuildOptions{PageSize: 256, DecodeCacheBytes: 1 << 20, FlushThreshold: 4})
	dc := table.Store().DecodeCache()
	if dc == nil {
		t.Fatal("no decode cache attached")
	}

	// Warm the cache.
	target := randomTarget(rng, 30)
	for i := 0; i < 2; i++ {
		if _, err := table.Query(context.Background(), target, simfun.Jaccard{}, QueryOptions{K: 5}); err != nil {
			t.Fatal(err)
		}
	}
	gen := dc.Generation()
	listBefore, globalBefore := dc.Invalidations()

	cur := table
	for i := 0; i < 20; i++ {
		cur, _ = cur.InsertSnapshot(randomTarget(rng, 30))
	}
	nt, ok := cur.DeleteSnapshot(5)
	if !ok {
		t.Fatal("DeleteSnapshot(5) refused")
	}
	cur = nt

	if g := dc.Generation(); g != gen {
		t.Fatalf("snapshot mutations bumped the global generation: %d -> %d", gen, g)
	}
	listAfter, globalAfter := dc.Invalidations()
	if globalAfter != globalBefore {
		t.Fatalf("global invalidations moved: %d -> %d", globalBefore, globalAfter)
	}
	if listAfter <= listBefore {
		t.Fatalf("no per-list invalidations recorded: %d -> %d", listBefore, listAfter)
	}
	if err := cur.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotConcurrentReaders publishes a chain of snapshot
// mutations through an atomic pointer while reader goroutines load and
// query concurrently — the core-level model of the public Index. Under
// -race (make race-snapshot) this is the proof that a loaded snapshot
// is safe to read with no lock while writers derive from it.
func TestSnapshotConcurrentReaders(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	d := randomDataset(rng, 300, 30)
	table := buildTestTable(t, d, randomPartition(t, rng, 30, 5),
		BuildOptions{PageSize: 256, DecodeCacheBytes: 1 << 18, FlushThreshold: 4})

	var published atomic.Pointer[Table]
	published.Store(table)
	var stop atomic.Bool
	fail := make(chan error, 8)
	var wg sync.WaitGroup

	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			qrng := rand.New(rand.NewSource(seed))
			for !stop.Load() {
				snap := published.Load()
				live := snap.Live()
				res, err := snap.Query(context.Background(), randomTarget(qrng, 30), simfun.Jaccard{}, QueryOptions{K: 3})
				if err != nil {
					fail <- err
					return
				}
				// The pinned snapshot is immutable: whatever the writer
				// does meanwhile, this table's live count cannot move.
				if snap.Live() != live {
					fail <- fmt.Errorf("pinned snapshot's live count moved: %d -> %d", live, snap.Live())
					return
				}
				_ = res
			}
		}(int64(30 + w))
	}

	wrng := rand.New(rand.NewSource(18))
	for i := 0; i < 400; i++ {
		cur := published.Load()
		if i%5 == 4 {
			if nt, ok := cur.DeleteSnapshot(txn.TID(wrng.Intn(300))); ok {
				published.Store(nt)
			}
		} else {
			nt, _ := cur.InsertSnapshot(randomTarget(wrng, 30))
			published.Store(nt)
		}
	}
	stop.Store(true)
	wg.Wait()
	close(fail)
	for err := range fail {
		t.Fatal(err)
	}
	if err := published.Load().Validate(); err != nil {
		t.Fatal(err)
	}
}
