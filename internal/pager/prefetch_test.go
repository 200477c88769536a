package pager

import (
	"bytes"
	"context"
	"math/rand"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sigtable/internal/txn"
)

// waitFor polls cond until it holds or the deadline passes — the
// prefetch workers are asynchronous, so tests wait on observable state
// rather than sleeping fixed amounts.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCoalescedColdScan is the tentpole's syscall-reduction acceptance
// at the pager layer: a cold scan over a multi-page list fetches runs
// of consecutive pages in single backend reads, so BackendReads lands
// well under Misses (the per-page consumption counter) while every
// consumption-side counter is unchanged by coalescing.
func TestCoalescedColdScan(t *testing.T) {
	for _, format := range []Format{FormatV1, FormatV2} {
		t.Run(format.String(), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "pages.dat")
			s, err := NewFileStoreFormat(path, 128, format)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			rng := rand.New(rand.NewSource(11))
			tids, txns := randomTxns(rng, 400)
			list, err := s.WriteList(tids, txns)
			if err != nil {
				t.Fatal(err)
			}
			s.Seal()
			if len(list.Pages) < 4 {
				t.Fatalf("fixture too small: %d pages", len(list.Pages))
			}
			s.AttachPool(len(list.Pages) + 2)
			s.ResetStats()

			n := 0
			if err := s.ScanList(list, nil, func(txn.TID, txn.Transaction) bool { n++; return true }); err != nil {
				t.Fatal(err)
			}
			if n != 400 {
				t.Fatalf("scanned %d records, want 400", n)
			}
			st := s.Stats()
			if st.Misses != int64(len(list.Pages)) {
				t.Fatalf("Misses = %d, want %d (coalescing must not change consumption counters)", st.Misses, len(list.Pages))
			}
			if st.BackendReads >= st.Misses {
				t.Fatalf("BackendReads = %d not below Misses = %d: no coalescing happened", st.BackendReads, st.Misses)
			}
			// The acceptance bar: ≥25%% fewer backend reads than pages
			// missed. A fully consecutive list coalesces into runs of
			// maxReadRun, far past the bar.
			if 4*st.BackendReads > 3*st.Misses {
				t.Fatalf("BackendReads = %d > 0.75 × Misses = %d", st.BackendReads, st.Misses)
			}
			if st.CoalescedReads == 0 {
				t.Fatal("no multi-page runs counted")
			}
			if st.ReadRunPages < 2*st.CoalescedReads {
				t.Fatalf("ReadRunPages = %d inconsistent with CoalescedReads = %d", st.ReadRunPages, st.CoalescedReads)
			}

			// Pool-warm second scan: no backend traffic at all.
			before := st
			if err := s.ScanList(list, nil, func(txn.TID, txn.Transaction) bool { return true }); err != nil {
				t.Fatal(err)
			}
			st = s.Stats()
			if st.BackendReads != before.BackendReads || st.Misses != before.Misses {
				t.Fatalf("warm scan touched the backend: %+v -> %+v", before, st)
			}
		})
	}
}

// TestCoalescedScanMatchesPerPage: the coalesced reader returns the
// exact record sequence of a per-page reader (a poolless memory store
// still coalesces; the bytes must be identical either way).
func TestCoalescedScanMatchesPerPage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.dat")
	fs, err := NewFileStoreFormat(path, 128, FormatV2)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	ms := NewStoreFormat(128, FormatV2)
	rng := rand.New(rand.NewSource(12))
	tids, txns := randomTxns(rng, 250)
	fl, err := fs.WriteList(tids, txns)
	if err != nil {
		t.Fatal(err)
	}
	ml, err := ms.WriteList(tids, txns)
	if err != nil {
		t.Fatal(err)
	}
	fs.Seal()
	ms.Seal()
	var fromFile, fromMem []txn.Transaction
	var reads atomic.Int64
	if err := fs.ScanList(fl, &reads, func(_ txn.TID, tr txn.Transaction) bool {
		fromFile = append(fromFile, tr)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if err := ms.ScanList(ml, nil, func(_ txn.TID, tr txn.Transaction) bool {
		fromMem = append(fromMem, tr)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(fromFile) != 250 || len(fromMem) != 250 {
		t.Fatalf("scanned %d / %d records", len(fromFile), len(fromMem))
	}
	for i := range fromFile {
		if !fromFile[i].Equal(fromMem[i]) {
			t.Fatalf("record %d differs between coalesced file scan and memory scan", i)
		}
	}
	// Per-query read attribution still counts every page consumed.
	if reads.Load() != int64(len(fl.Pages)) {
		t.Fatalf("per-query reads = %d, want %d", reads.Load(), len(fl.Pages))
	}
}

// TestReadPagesBackends: both backends' vectored read returns the same
// payloads the single-page path does, at every base and run length.
func TestReadPagesBackends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.dat")
	fs, err := NewFileStore(path, 128)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	ms := NewStore(128)
	rng := rand.New(rand.NewSource(13))
	tids, txns := randomTxns(rng, 120)
	if _, err := fs.WriteList(tids, txns); err != nil {
		t.Fatal(err)
	}
	if _, err := ms.WriteList(tids, txns); err != nil {
		t.Fatal(err)
	}
	for _, s := range []*Store{fs, ms} {
		np := s.NumPages()
		for base := 0; base < np; base += 3 {
			n := np - base
			if n > 5 {
				n = 5
			}
			run, err := s.back.readPages(PageID(base), n)
			if err != nil {
				t.Fatal(err)
			}
			if len(run) != n {
				t.Fatalf("readPages(%d, %d) returned %d pages", base, n, len(run))
			}
			for j := 0; j < n; j++ {
				single, err := s.back.read(PageID(base + j))
				if err != nil {
					t.Fatal(err)
				}
				if string(run[j]) != string(single) {
					t.Fatalf("page %d differs between readPages and readPage", base+j)
				}
			}
		}
	}
}

// prefetchFixture builds a file-backed pooled store with several lists
// and an attached prefetcher.
func prefetchFixture(t *testing.T, workers int) (*Store, []List) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "pages.dat")
	s, err := NewFileStoreFormat(path, 128, FormatV2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	rng := rand.New(rand.NewSource(21))
	lists := make([]List, 6)
	for i := range lists {
		tids, txns := randomTxns(rng, 150)
		l, err := s.WriteList(tids, txns)
		if err != nil {
			t.Fatal(err)
		}
		lists[i] = l
	}
	s.Seal()
	s.AttachPool(s.NumPages() + 4)
	s.AttachPrefetcher(workers)
	s.ResetStats()
	return s, lists
}

// TestPrefetcherWarmsPool: a prefetched list scans without a single
// miss, the hit counter credits the prefetch, and the scan's own
// consumption counters are untouched by who fetched the pages.
func TestPrefetcherWarmsPool(t *testing.T) {
	s, lists := prefetchFixture(t, 2)
	pf := s.Prefetcher()
	if pf == nil {
		t.Fatal("prefetcher not attached")
	}
	l := lists[0]
	pf.Request(context.Background(), append([]PageID(nil), l.Pages...))
	waitFor(t, "prefetch to issue the list", func() bool {
		return pf.Stats().Issued >= int64(len(l.Pages))
	})

	n := 0
	if err := s.ScanList(l, nil, func(txn.TID, txn.Transaction) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n != 150 {
		t.Fatalf("scanned %d records", n)
	}
	st := s.Stats()
	if st.Misses != 0 {
		t.Fatalf("scan missed %d pages the prefetcher should have staged", st.Misses)
	}
	if st.Reads != int64(len(l.Pages)) {
		t.Fatalf("Reads = %d, want %d", st.Reads, len(l.Pages))
	}
	if got := pf.Stats().Hits; got != int64(len(l.Pages)) {
		t.Fatalf("prefetch hits = %d, want %d", got, len(l.Pages))
	}
}

// TestPrefetcherDedup: re-requesting resident pages issues nothing new.
func TestPrefetcherDedup(t *testing.T) {
	s, lists := prefetchFixture(t, 1)
	pf := s.Prefetcher()
	l := lists[1]
	pf.Request(context.Background(), append([]PageID(nil), l.Pages...))
	waitFor(t, "first issue", func() bool { return pf.Stats().Issued >= int64(len(l.Pages)) })
	issued := pf.Stats().Issued

	pf.Request(context.Background(), append([]PageID(nil), l.Pages...))
	// Drain: push an unrelated list through and wait for it, proving
	// the duplicate request was processed (and skipped) in between.
	other := lists[2]
	pf.Request(context.Background(), append([]PageID(nil), other.Pages...))
	waitFor(t, "second list issue", func() bool {
		return pf.Stats().Issued >= issued+int64(len(other.Pages))
	})
	if got := pf.Stats().Issued; got != issued+int64(len(other.Pages)) {
		t.Fatalf("resident pages were re-issued: %d -> %d", issued, got)
	}
	if s.Stats().Misses != 0 {
		t.Fatal("prefetch fetches leaked into the miss counter")
	}
}

// TestPrefetcherOutlivesRequester: the context gates enqueue only. A
// request accepted before its search's cancellation is still served —
// the pool is shared, so the warmth has consumers beyond the
// requesting query — while a request from an already-cancelled
// context is refused without touching any counter.
func TestPrefetcherOutlivesRequester(t *testing.T) {
	s, lists := prefetchFixture(t, 2)
	pf := s.Prefetcher()

	l := lists[0]
	ctx, cancel := context.WithCancel(context.Background())
	pf.Request(ctx, append([]PageID(nil), l.Pages...))
	cancel() // the "query" finishes; its prefetch must not be voided
	waitFor(t, "post-cancel service of an accepted request", func() bool {
		return pf.Stats().Issued >= int64(len(l.Pages))
	})
	s.ResetStats()
	if err := s.ScanList(l, nil, func(txn.TID, txn.Transaction) bool { return true }); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Misses != 0 {
		t.Fatalf("scan missed %d pages prefetched by a finished query", st.Misses)
	}

	dead, kill := context.WithCancel(context.Background())
	kill()
	before := pf.Stats()
	pf.Request(dead, append([]PageID(nil), lists[1].Pages...))
	after := pf.Stats()
	if after.Issued != before.Issued || after.Dropped != before.Dropped {
		t.Fatalf("cancelled-context request moved counters: %+v -> %+v", before, after)
	}
}

// TestPrefetcherReadahead: the per-query depth resolution contract.
func TestPrefetcherReadahead(t *testing.T) {
	s, _ := prefetchFixture(t, 1)
	pf := s.Prefetcher()
	if got := pf.Readahead(-1); got != 0 {
		t.Fatalf("negative request resolved to %d", got)
	}
	if got := pf.Readahead(0); got != defaultReadahead {
		t.Fatalf("adaptive request resolved to %d, want %d", got, defaultReadahead)
	}
	if got := pf.Readahead(5); got != 5 {
		t.Fatalf("explicit request resolved to %d", got)
	}
	if got := pf.Readahead(10 * maxReadahead); got != maxReadahead {
		t.Fatalf("oversized request resolved to %d, want clamp %d", got, maxReadahead)
	}
}

// prefetchWorkers counts the live prefetch worker goroutines. Counting
// the workers themselves, rather than comparing runtime.NumGoroutine
// against a baseline, keeps a previous test's goroutine that is still
// exiting out of the count.
func prefetchWorkers() int {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	return bytes.Count(buf[:n], []byte("pager.(*Prefetcher).worker("))
}

// TestPrefetcherStopReleasesGoroutines: attach starts exactly the
// worker total, stop (and Close, which implies it) reaps every one of
// them — the pager-layer leak check.
func TestPrefetcherStopReleasesGoroutines(t *testing.T) {
	s, _ := prefetchFixture(t, 4)
	waitFor(t, "workers to start", func() bool { return prefetchWorkers() == 4 })
	s.StopPrefetcher()
	waitFor(t, "workers to exit", func() bool { return prefetchWorkers() == 0 })
	if s.Prefetcher() != nil {
		t.Fatal("prefetcher still attached after stop")
	}
	s.StopPrefetcher() // idempotent

	s.AttachPrefetcher(2)
	waitFor(t, "workers to restart", func() bool { return prefetchWorkers() == 2 })
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "close to reap workers", func() bool { return prefetchWorkers() == 0 })
}

// TestPrefetcherNoPool: without a buffer pool there is nowhere to stage
// pages; attach must be a no-op rather than a slow memory leak.
func TestPrefetcherNoPool(t *testing.T) {
	s := NewStore(128)
	s.AttachPrefetcher(2)
	if s.Prefetcher() != nil {
		t.Fatal("prefetcher attached to a poolless store")
	}
	s.AttachPool(8)
	s.AttachPrefetcher(0)
	if s.Prefetcher() != nil {
		t.Fatal("zero workers attached a prefetcher")
	}
}

// TestPrefetchConcurrentScanHammer drives concurrent scans and
// overlapping prefetch requests against one file-backed store under
// -race: the pipeline's locking must keep every scan's records intact
// and its counters consistent.
func TestPrefetchConcurrentScanHammer(t *testing.T) {
	s, lists := prefetchFixture(t, 3)
	pf := s.Prefetcher()
	ctx := context.Background()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				l := lists[rng.Intn(len(lists))]
				if rng.Intn(2) == 0 {
					pf.Request(ctx, append([]PageID(nil), l.Pages...))
				}
				n := 0
				if err := s.ScanList(l, nil, func(txn.TID, txn.Transaction) bool { n++; return true }); err != nil {
					t.Error(err)
					return
				}
				if n != 150 {
					t.Errorf("scan saw %d records, want 150", n)
					return
				}
			}
		}(int64(w) + 31)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			select {
			case <-stop:
				return
			default:
			}
			// Every list at once: requests overlapping the scanners'
			// keep the inflight dedup contended.
			for _, l := range lists {
				pf.Request(ctx, append([]PageID(nil), l.Pages...))
			}
			if st := pf.Stats(); st.Hits > st.Issued {
				t.Errorf("%d prefetch hits exceed %d issued pages", st.Hits, st.Issued)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	time.Sleep(150 * time.Millisecond)
	close(stop)
	wg.Wait()
}
