package pager

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"sigtable/internal/txn"
)

// scanAll collects every record of a list.
func scanAll(t *testing.T, s *Store, l List) ([]txn.TID, []txn.Transaction) {
	t.Helper()
	var ids []txn.TID
	var txns []txn.Transaction
	if err := s.ScanList(l, nil, func(id txn.TID, tr txn.Transaction) bool {
		ids = append(ids, id)
		txns = append(txns, tr)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return ids, txns
}

func TestDecodeCacheHitSkipsReads(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	s := NewStore(128)
	s.AttachDecodeCache(1 << 20)
	tids, txns := randomTxns(rng, 200)
	list, err := s.WriteList(tids, txns)
	if err != nil {
		t.Fatal(err)
	}
	s.ResetStats()

	wantIDs, wantTxns := scanAll(t, s, list)
	if got := s.Stats().Reads; got != int64(len(list.Pages)) {
		t.Fatalf("first scan Reads = %d, want %d", got, len(list.Pages))
	}
	for pass := 0; pass < 3; pass++ {
		gotIDs, gotTxns := scanAll(t, s, list)
		if len(gotIDs) != len(wantIDs) {
			t.Fatalf("pass %d scanned %d records, want %d", pass, len(gotIDs), len(wantIDs))
		}
		for i := range gotIDs {
			if gotIDs[i] != wantIDs[i] || !gotTxns[i].Equal(wantTxns[i]) {
				t.Fatalf("pass %d record %d differs from uncached scan", pass, i)
			}
		}
	}
	if got := s.Stats().Reads; got != int64(len(list.Pages)) {
		t.Fatalf("cached scans issued reads: Reads = %d, want %d", got, len(list.Pages))
	}
	hits, misses := s.DecodeCache().Stats()
	if hits != 3 || misses != 1 {
		t.Fatalf("hits/misses = %d/%d, want 3/1", hits, misses)
	}
	if s.DecodeCache().HitRate() != 0.75 {
		t.Fatalf("HitRate = %v", s.DecodeCache().HitRate())
	}
}

func TestDecodeCacheInvalidateForcesRedecode(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s := NewStore(128)
	s.AttachDecodeCache(1 << 20)
	tids, txns := randomTxns(rng, 120)
	list, err := s.WriteList(tids, txns)
	if err != nil {
		t.Fatal(err)
	}
	scanAll(t, s, list) // populate
	s.ResetStats()
	s.DecodeCache().Invalidate()
	scanAll(t, s, list)
	if got := s.Stats().Reads; got != int64(len(list.Pages)) {
		t.Fatalf("post-invalidate scan Reads = %d, want %d (full re-read)", got, len(list.Pages))
	}
	// The second scan repopulated under the new generation.
	s.ResetStats()
	scanAll(t, s, list)
	if got := s.Stats().Reads; got != 0 {
		t.Fatalf("scan after repopulation Reads = %d, want 0", got)
	}
}

func TestDecodeCacheEarlyStopNotCached(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	s := NewStore(128)
	s.AttachDecodeCache(1 << 20)
	tids, txns := randomTxns(rng, 200)
	list, err := s.WriteList(tids, txns)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	if err := s.ScanList(list, nil, func(txn.TID, txn.Transaction) bool {
		n++
		return n < 3
	}); err != nil {
		t.Fatal(err)
	}
	if s.DecodeCache().Len() != 0 {
		t.Fatal("truncated scan was cached")
	}
	// A stop exactly at the last record is a complete decode and caches.
	total := 0
	if err := s.ScanList(list, nil, func(txn.TID, txn.Transaction) bool {
		total++
		return total < list.Count
	}); err != nil {
		t.Fatal(err)
	}
	if s.DecodeCache().Len() != 1 {
		t.Fatalf("complete scan not cached: Len = %d", s.DecodeCache().Len())
	}
}

// TestDecodeCacheByteBudgetEvicts drives one shard directly (keys
// chosen to all hash there) so the eviction arithmetic is independent
// of the GOMAXPROCS-derived shard count.
func TestDecodeCacheByteBudgetEvicts(t *testing.T) {
	c := NewDecodeCache(1 << 16)
	perShard := c.shards[0].maxBytes
	stride := PageID(c.mask + 1) // first pages 0, stride, 2·stride… all land in shard 0
	// key mirrors listKey: first PageID in the high half, offset 0.
	key := func(i int) uint64 { return uint64(PageID(i)*stride) << 32 }

	// Each entry: one 100-item transaction → 96 + 800 bytes.
	mk := func() ([]txn.TID, []txn.Transaction) {
		items := make([]txn.Item, 100)
		for j := range items {
			items[j] = txn.Item(j)
		}
		return []txn.TID{1}, []txn.Transaction{txn.New(items...)}
	}
	ids, txns := mk()
	size := decodedSize(ids, txns)
	fit := int(perShard / size)
	if fit < 2 {
		t.Skipf("shard budget %d holds fewer than 2 entries of %d bytes", perShard, size)
	}

	gen := c.Generation()
	for i := 0; i < fit+3; i++ {
		c.put(key(i), gen, ids, txns)
	}
	if got := c.shards[0].bytes; got > perShard {
		t.Fatalf("shard bytes = %d exceeds budget %d", got, perShard)
	}
	if c.Len() != fit {
		t.Fatalf("Len = %d, want %d resident entries", c.Len(), fit)
	}
	// LRU: the oldest inserts were evicted, the newest survive.
	if _, ok := c.get(key(0)); ok {
		t.Fatal("oldest entry survived past the budget")
	}
	if _, ok := c.get(key(fit + 2)); !ok {
		t.Fatal("newest entry evicted")
	}
	// Touching an old survivor protects it from the next eviction.
	oldest := key(3) // first resident after the initial evictions
	if _, ok := c.get(oldest); !ok {
		t.Fatal("expected survivor missing")
	}
	c.put(key(fit+3), gen, ids, txns)
	if _, ok := c.get(oldest); !ok {
		t.Fatal("recently touched entry evicted before colder ones")
	}
}

func TestDecodeCacheOversizedListSkipped(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	s := NewStore(128)
	s.AttachDecodeCache(256) // smaller than one decoded 100-record list
	tids, txns := randomTxns(rng, 100)
	list, err := s.WriteList(tids, txns)
	if err != nil {
		t.Fatal(err)
	}
	scanAll(t, s, list)
	if s.DecodeCache().Len() != 0 {
		t.Fatal("oversized list cached")
	}
	if s.DecodeCache().Bytes() != 0 {
		t.Fatalf("Bytes = %d after rejecting oversized list", s.DecodeCache().Bytes())
	}
}

func TestDecodeCacheDetach(t *testing.T) {
	s := NewStore(0)
	s.AttachDecodeCache(1 << 10)
	if s.DecodeCache() == nil {
		t.Fatal("cache not attached")
	}
	s.AttachDecodeCache(0)
	if s.DecodeCache() != nil {
		t.Fatal("cache not detached")
	}
}

func TestDecodeCacheZeroBytesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewDecodeCache(0) accepted")
		}
	}()
	NewDecodeCache(0)
}

// TestDecodeCacheConcurrentScans hammers one store from many goroutines
// mixing cached scans with invalidations; run under -race this checks
// the shard locking, and every scan must observe exactly the list it
// asked for.
func TestDecodeCacheConcurrentScans(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	s := NewStore(128)
	s.AttachDecodeCache(1 << 18)
	const nLists = 16
	lists := make([]List, nLists)
	first := make([]txn.TID, nLists)
	for i := range lists {
		tids, txns := randomTxns(rng, 30)
		l, err := s.WriteList(tids, txns)
		if err != nil {
			t.Fatal(err)
		}
		lists[i] = l
		first[i] = tids[0]
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 300; i++ {
				li := r.Intn(nLists)
				if r.Intn(20) == 0 {
					s.DecodeCache().Invalidate()
					continue
				}
				got := -1
				err := s.ScanList(lists[li], nil, func(id txn.TID, _ txn.Transaction) bool {
					if got == -1 && id != first[li] {
						errs <- fmt.Errorf("list %d: first TID %d, want %d", li, id, first[li])
					}
					got++
					return true
				})
				if err != nil {
					errs <- err
					return
				}
				if got+1 != lists[li].Count {
					errs <- fmt.Errorf("list %d: scanned %d of %d", li, got+1, lists[li].Count)
					return
				}
			}
		}(int64(100 + w))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
