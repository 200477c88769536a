package sigtable

import (
	"context"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// Disk-mode tests of the public API: a file-backed pooled store under
// concurrent queries and mutations, and a pooled sharded index against
// the in-memory single index. `make race-snapshot` runs the hammer
// under the race detector.
//
// The Prefetch* names date from the removed prefetch pipeline, which
// these tests covered alongside the pool.

// TestPrefetchHammer is the disk-mode concurrency proof: parallel
// Query, MultiQuery and BatchQuery calls race inserts, deletes and
// full compactions against a file-backed store whose buffer pool holds
// a fraction of the file, so concurrent scans keep evicting each
// other's pages mid-run. Compact swaps the table while searches are
// mid-flight; nothing here may race, deadlock, or corrupt the index.
func TestPrefetchHammer(t *testing.T) {
	data := testDataset(t, 400, 31)
	idx, err := BuildIndex(data, IndexOptions{
		SignatureCardinality: 8,
		PageSize:             256,
		PageFile:             filepath.Join(t.TempDir(), "pages.dat"),
		BufferPoolPages:      64,
		DecodeCacheBytes:     1 << 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	universe := data.UniverseSize()
	newTarget := func(rng *rand.Rand) Transaction {
		items := make([]Item, 0, 8)
		for len(items) < 3 {
			items = append(items, Item(rng.Intn(universe)))
		}
		return NewTransaction(items...)
	}

	const (
		queryWorkers   = 4
		queriesPerGoro = 50
		inserts        = 120
		deleteAttempts = 80
		compactions    = 3
	)

	var wg sync.WaitGroup
	fail := make(chan error, queryWorkers+3)

	for w := 0; w < queryWorkers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < queriesPerGoro; i++ {
				target := newTarget(rng)
				opt := SearchOptions{K: 3}
				switch i % 3 {
				case 0:
					if _, err := idx.Query(context.Background(), target, Jaccard{}, opt); err != nil {
						fail <- err
						return
					}
				case 1:
					if _, err := idx.MultiQuery(context.Background(), []Transaction{target, newTarget(rng)}, Cosine{}, opt); err != nil {
						fail <- err
						return
					}
				case 2:
					opt.SharedScan = i%2 == 0
					opt.Parallelism = 2
					if _, err := idx.BatchQuery(context.Background(), []Transaction{target, newTarget(rng)}, Jaccard{}, opt); err != nil {
						fail <- err
						return
					}
				}
			}
		}(int64(300 + w))
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(9))
		for i := 0; i < inserts; i++ {
			idx.Insert(newTarget(rng))
		}
	}()

	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(10))
		for i := 0; i < deleteAttempts; i++ {
			idx.Delete(TID(rng.Intn(400)))
		}
	}()

	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < compactions; i++ {
			time.Sleep(5 * time.Millisecond)
			if err := idx.Compact(2); err != nil {
				fail <- err
				return
			}
		}
	}()

	wg.Wait()
	close(fail)
	for err := range fail {
		t.Fatal(err)
	}
	if err := idx.Validate(); err != nil {
		t.Fatalf("index invalid after disk hammer: %v", err)
	}
}

// TestPrefetchShardedMatchesSingle extends the sharded/single identity
// property to pooled page stores: a ShardedIndex whose shards keep
// their lists on pages behind buffer pools far smaller than their
// stores answers byte-identically to a plain in-memory Index.
func TestPrefetchShardedMatchesSingle(t *testing.T) {
	data := testDataset(t, 1500, 31)
	single, err := BuildIndex(data, IndexOptions{SignatureCardinality: 10})
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := NewSharded(testDataset(t, 1500, 31), IndexOptions{
		SignatureCardinality: 10,
		Shards:               3,
		PageSize:             256,
		BufferPoolPages:      24,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sharded.Close()

	rng := rand.New(rand.NewSource(77))
	for i := 0; i < 12; i++ {
		target := data.Get(TID(rng.Intn(1500)))
		for _, opt := range []SearchOptions{
			{K: 5},
			{K: 1},
			{K: 10, MaxScanFraction: 0.2},
			{K: 5, SortBy: ByCoordSimilarity},
		} {
			want, err := single.Query(context.Background(), target, Cosine{}, opt)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sharded.Query(context.Background(), target, Cosine{}, opt)
			if err != nil {
				t.Fatal(err)
			}
			equalResults(t, "pooled sharded", want, got)
		}
	}
}
