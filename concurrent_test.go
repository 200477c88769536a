package sigtable

import (
	"context"
	"math/rand"
	"sync"
	"testing"
)

// TestConcurrentQueryMutate hammers one Index from many goroutines at
// once — parallel k-NN queries, range queries, multi-target queries,
// batches, inserts, deletes and stat reads — and then validates the
// index. Run under -race (make check does) this is the proof that the
// Index's snapshot publication — lock-free reads off the atomic table
// pointer, mutations serialized on the writer mutex — actually covers
// every public entry point.
func TestConcurrentQueryMutate(t *testing.T) {
	data := testDataset(t, 400, 31)
	idx, err := BuildIndex(data, IndexOptions{SignatureCardinality: 8})
	if err != nil {
		t.Fatal(err)
	}
	universe := data.UniverseSize()
	newTarget := func(rng *rand.Rand) Transaction {
		items := make([]Item, 0, 8)
		for len(items) < 3 {
			items = append(items, Item(rng.Intn(universe)))
		}
		return NewTransaction(items...)
	}

	const (
		queryWorkers    = 4
		queriesPerGoro  = 60
		inserts         = 150
		deleteAttempts  = 100
		statReadsPerOps = 40
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
				switch i % 4 {
				case 0:
					_, err := idx.Query(context.Background(), target, Jaccard{}, QueryOptions{K: 3, Parallelism: rng.Intn(3)})
					if err != nil {
						fail <- err
						return
					}
				case 1:
					_, err := idx.RangeQuery(context.Background(), target, []RangeConstraint{
						{F: MatchSimilarity{}, Threshold: 1},
					}, SearchOptions{Parallelism: rng.Intn(3)})
					if err != nil {
						fail <- err
						return
					}
				case 2:
					_, err := idx.MultiQuery(context.Background(), []Transaction{target, newTarget(rng)}, Cosine{}, QueryOptions{K: 2})
					if err != nil {
						fail <- err
						return
					}
				case 3:
					_, err := idx.BatchQuery(context.Background(), []Transaction{target, newTarget(rng)}, Jaccard{}, QueryOptions{K: 2}, BatchOptions{Parallelism: 2})
					if err != nil {
						fail <- err
						return
					}
				}
			}
		}(int64(100 + w))
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < inserts; i++ {
			idx.Insert(newTarget(rng))
		}
	}()

	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(8))
		for i := 0; i < deleteAttempts; i++ {
			idx.Delete(TID(rng.Intn(400)))
		}
	}()

	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < statReadsPerOps; i++ {
			_ = idx.Len()
			_ = idx.Live()
			_ = idx.NumEntries()
			_ = idx.Items(TID(i % 400))
		}
	}()

	wg.Wait()
	close(fail)
	for err := range fail {
		t.Fatal(err)
	}

	if idx.Len() != 400+inserts {
		t.Fatalf("expected %d transactions after hammering, found %d", 400+inserts, idx.Len())
	}
	if err := idx.Validate(); err != nil {
		t.Fatalf("index invalid after concurrent mutation: %v", err)
	}
}

// TestConcurrentQueryMutateDiskCache is the disk-mode sibling of
// TestConcurrentQueryMutate, with the decode cache attached and
// Compact in the mix: queries (including shared-scan batches, which
// read cached decodes) race inserts, deletes and full compactions.
// Under -race (make check) this covers the cache's sharded locking,
// both invalidation paths (per-list eviction from snapshot mutations,
// generation bump from Compact) and the Compact snapshot swap.
func TestConcurrentQueryMutateDiskCache(t *testing.T) {
	data := testDataset(t, 400, 31)
	idx, err := BuildIndex(data, IndexOptions{
		SignatureCardinality: 8,
		PageSize:             256,
		DecodeCacheBytes:     1 << 18,
	})
	if err != nil {
		t.Fatal(err)
	}
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
		queriesPerGoro = 40
		inserts        = 100
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
				if i%2 == 0 {
					// Repeat the query so the second run reads the decodes
					// the first one cached.
					for j := 0; j < 2; j++ {
						if _, err := idx.Query(context.Background(), target, Jaccard{}, QueryOptions{K: 3}); err != nil {
							fail <- err
							return
						}
					}
				} else {
					_, err := idx.BatchQuery(context.Background(),
						[]Transaction{target, newTarget(rng), target}, Cosine{},
						QueryOptions{K: 2}, BatchOptions{SharedScan: true, Parallelism: 2})
					if err != nil {
						fail <- err
						return
					}
				}
			}
		}(int64(200 + w))
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(17))
		for i := 0; i < inserts; i++ {
			idx.Insert(newTarget(rng))
		}
	}()

	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(18))
		for i := 0; i < deleteAttempts; i++ {
			idx.Delete(TID(rng.Intn(400)))
		}
	}()

	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < compactions; i++ {
			if err := idx.Compact(1); err != nil {
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
		t.Fatalf("index invalid after concurrent mutation: %v", err)
	}
}
