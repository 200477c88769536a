package pager

import (
	"math/rand"
	"path/filepath"
	"sync/atomic"
	"testing"

	"sigtable/internal/txn"
)

// TestCoalescedColdScan is the syscall-reduction acceptance at the
// pager layer: a cold scan over a multi-page list fetches runs
// of consecutive pages in single backend reads, so BackendReads lands
// well under Misses (the per-page consumption counter) while every
// consumption-side counter is unchanged by coalescing.
func TestCoalescedColdScan(t *testing.T) {
	t.Run(FormatV2.String(), func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "pages.dat")
		s, err := NewFileStore(path, 128)
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

// TestCoalescedScanMatchesPerPage: the coalesced reader returns the
// exact record sequence of a per-page reader (a poolless memory store
// still coalesces; the bytes must be identical either way).
func TestCoalescedScanMatchesPerPage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.dat")
	fs, err := NewFileStore(path, 128)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	ms := NewStore(128)
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
// payloads the single-page path does, at every base and run length,
// into fresh storage and into storage reused from the previous read
// (runs of different lengths, so reuse both shrinks and regrows it).
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
	fs.Seal()
	ms.Seal()
	for _, s := range []*Store{fs, ms} {
		np := s.NumPages()
		var reused runBuf
		for base := 0; base < np; base += 3 {
			n := np - base
			if n > 1+base%5 {
				n = 1 + base%5
			}
			into := runBuf{}
			if base%2 == 1 {
				into = reused
			}
			rb, err := s.back.readPages(PageID(base), n, into)
			if err != nil {
				t.Fatal(err)
			}
			reused = rb
			run := rb.pages
			if len(run) != n {
				t.Fatalf("readPages(%d, %d) returned %d pages", base, n, len(run))
			}
			for j := 0; j < n; j++ {
				single, err := s.back.read(PageID(base + j))
				if err != nil {
					t.Fatal(err)
				}
				if string(run[j]) != string(single) {
					t.Fatalf("page %d differs between readPages and read", base+j)
				}
			}
		}
	}
}
