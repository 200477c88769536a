package pager

import (
	"math/rand"
	"sync"
	"testing"

	"sigtable/internal/txn"
)

// TestConcurrentStagedWriters hammers the staged write path under
// -race: many goroutines stage lists concurrently, then a single
// goroutine appends them in list order — the write discipline the
// parallel index build uses. Concurrent readers then verify every list
// decodes intact.
func TestConcurrentStagedWriters(t *testing.T) {
	for _, backend := range []string{"mem", "file"} {
		t.Run(backend, func(t *testing.T) {
			var s *Store
			if backend == "file" {
				var err error
				s, err = NewFileStore(t.TempDir()+"/pages.dat", 256)
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
			} else {
				s = NewStore(256)
			}

			const numLists = 32
			type batch struct {
				tids []txn.TID
				txns []txn.Transaction
			}
			batches := make([]batch, numLists)
			for i := range batches {
				rng := rand.New(rand.NewSource(int64(i)))
				tids, txns := randomTxns(rng, 50+rng.Intn(100))
				batches[i] = batch{tids, txns}
			}

			// Stage concurrently.
			staged := make([]*StagedList, numLists)
			var wg sync.WaitGroup
			for i := range batches {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					st, err := s.StageList(batches[i].tids, batches[i].txns)
					if err != nil {
						t.Error(err)
						return
					}
					staged[i] = st
				}(i)
			}
			wg.Wait()

			// Place sequentially (deterministic layout).
			lists := make([]List, numLists)
			for i, st := range staged {
				lists[i] = s.AppendStaged(st)
			}
			s.Seal()

			// Concurrent readers over all lists.
			for i := range lists {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					j := 0
					err := s.ScanList(lists[i], nil, func(id txn.TID, tr txn.Transaction) bool {
						if id != batches[i].tids[j] || !tr.Equal(batches[i].txns[j]) {
							t.Errorf("list %d record %d corrupt", i, j)
							return false
						}
						j++
						return true
					})
					if err != nil {
						t.Errorf("list %d: %v", i, err)
					}
				}(i)
			}
			wg.Wait()
		})
	}
}

// TestConcurrentPoolHammer drives the sharded clock pool from many
// goroutines at once — mixed Gets, Puts and stat reads — and checks
// the counters stay coherent. Run under -race this is the proof the
// shard locking covers every access.
func TestConcurrentPoolHammer(t *testing.T) {
	p := NewBufferPoolShards(64, 8)
	const (
		workers = 8
		ops     = 1998 // divisible by 3: exactly ops/3 Gets per worker
		idSpace = 256
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < ops; i++ {
				id := PageID(rng.Intn(idSpace))
				switch i % 3 {
				case 0:
					p.Put(id, []byte{byte(id)})
				case 1:
					if data, ok := p.Get(id); ok && data[0] != byte(id) {
						t.Errorf("page %d holds %v", id, data)
						return
					}
				case 2:
					_ = p.Len()
					_, _ = p.Stats()
					_ = p.ShardStats()
					_ = p.Contention()
				}
			}
		}(int64(w))
	}
	wg.Wait()

	if p.Len() > 64 {
		t.Fatalf("Len = %d exceeds capacity", p.Len())
	}
	hits, misses := p.Stats()
	gets := int64(workers) * ops / 3
	if hits+misses != gets {
		t.Fatalf("hits %d + misses %d != %d Gets", hits, misses, gets)
	}
}
