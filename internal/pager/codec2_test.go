package pager

import (
	"math/rand"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"sigtable/internal/bitset"
	"sigtable/internal/txn"
)

// collectList collects every record of a sealed store's list.
func collectList(t *testing.T, s *Store, l List) ([]txn.TID, []txn.Transaction) {
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

func checkListEqual(t *testing.T, s *Store, l List, tids []txn.TID, txns []txn.Transaction) {
	t.Helper()
	gotIDs, gotTxns := collectList(t, s, l)
	if len(gotIDs) != len(tids) {
		t.Fatalf("scanned %d records, want %d", len(gotIDs), len(tids))
	}
	for i := range gotIDs {
		if gotIDs[i] != tids[i] || !gotTxns[i].Equal(txns[i]) {
			t.Fatalf("record %d = (%d, %v), want (%d, %v)", i, gotIDs[i], gotTxns[i], tids[i], txns[i])
		}
	}
}

func TestV2WriteScanRoundTrip(t *testing.T) {
	for _, backend := range []string{"mem", "file"} {
		t.Run(backend, func(t *testing.T) {
			rng := rand.New(rand.NewSource(21))
			var s *Store
			if backend == "file" {
				var err error
				s, err = NewFileStore(filepath.Join(t.TempDir(), "pages"), 256)
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
			} else {
				s = NewStore(256)
			}
			type written struct {
				l    List
				tids []txn.TID
				txns []txn.Transaction
			}
			var lists []written
			for i := 0; i < 20; i++ {
				tids, txns := randomTxns(rng, 1+rng.Intn(150))
				l, err := s.WriteList(tids, txns)
				if err != nil {
					t.Fatal(err)
				}
				lists = append(lists, written{l, tids, txns})
			}
			s.Seal()
			for _, w := range lists {
				checkListEqual(t, s, w.l, w.tids, w.txns)
			}
		})
	}
}

// TestV2SharedPagesPackLists is the point of the format: many small
// lists share pages instead of each claiming its own.
func TestV2SharedPagesPackLists(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	s := NewStore(4096)
	const nLists = 500
	for i := 0; i < nLists; i++ {
		tids, txns := randomTxns(rng, 2) // tiny list: a few dozen bytes
		if _, err := s.WriteList(tids, txns); err != nil {
			t.Fatal(err)
		}
	}
	s.Seal()
	if got := s.NumPages(); got > nLists/10 {
		t.Fatalf("%d tiny lists occupy %d pages; want shared pages, not one per list (%d)", nLists, got, nLists)
	}
	st := s.Stats()
	if st.BytesWritten <= 0 || st.BytesLogical <= st.BytesWritten {
		t.Fatalf("BytesLogical/BytesWritten = %d/%d, want compression > 1", st.BytesLogical, st.BytesWritten)
	}
}

// TestV2StagedLayoutIdentity pins the v2 equivalent of the staged
// discipline guarantee: staging concurrently and appending in order
// produces byte-for-byte the serial WriteList layout.
func TestV2StagedLayoutIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const nLists = 40
	type input struct {
		tids []txn.TID
		txns []txn.Transaction
	}
	inputs := make([]input, nLists)
	for i := range inputs {
		tids, txns := randomTxns(rng, rng.Intn(120))
		inputs[i] = input{tids, txns}
	}

	serial := NewStore(256)
	serialLists := make([]List, nLists)
	for i, in := range inputs {
		l, err := serial.WriteList(in.tids, in.txns)
		if err != nil {
			t.Fatal(err)
		}
		serialLists[i] = l
	}
	serial.Seal()

	staged := NewStore(256)
	st := make([]*StagedList, nLists)
	done := make(chan error, nLists)
	for i, in := range inputs {
		go func(i int, in input) {
			var err error
			st[i], err = staged.StageList(in.tids, in.txns)
			done <- err
		}(i, in)
	}
	for range st {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	for i := range st {
		got := staged.AppendStaged(st[i])
		want := serialLists[i]
		if got.Start != want.Start || got.Count != want.Count || len(got.Pages) != len(want.Pages) {
			t.Fatalf("list %d handle = %+v, want %+v", i, got, want)
		}
		for j := range got.Pages {
			if got.Pages[j] != want.Pages[j] {
				t.Fatalf("list %d page %d = %d, want %d", i, j, got.Pages[j], want.Pages[j])
			}
		}
	}
	staged.Seal()

	if serial.NumPages() != staged.NumPages() {
		t.Fatalf("page counts differ: serial %d, staged %d", serial.NumPages(), staged.NumPages())
	}
	sb := serial.back.(*memBackend)
	tb := staged.back.(*memBackend)
	for id := 0; id < serial.NumPages(); id++ {
		sp, _ := sb.read(PageID(id))
		tp, _ := tb.read(PageID(id))
		if string(sp) != string(tp) {
			t.Fatalf("page %d bytes differ between serial and staged builds", id)
		}
	}
}

// TestV2FrameSkipBounds checks the skip metadata directly: every
// frame's header bounds exactly the TIDs inside it.
func TestV2FrameSkipBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	tids, txns := randomTxns(rng, 500)
	frames, _, err := encodeFrames(4096, tids, txns)
	if err != nil {
		t.Fatal(err)
	}
	rec := 0
	for fi, fr := range frames {
		f, n, err := parseFrame(fr)
		if err != nil {
			t.Fatal(err)
		}
		if n != len(fr) {
			t.Fatalf("frame %d: parsed %d of %d bytes", fi, n, len(fr))
		}
		lo, hi := f.minTID, f.maxTID
		stopped, err := f.decode(func(id txn.TID, tr txn.Transaction) bool {
			if uint64(id) < lo || uint64(id) > hi {
				t.Fatalf("frame %d: TID %d outside header bounds [%d, %d]", fi, id, lo, hi)
			}
			if id != tids[rec] || !tr.Equal(txns[rec]) {
				t.Fatalf("frame %d record %d mismatch", fi, rec)
			}
			rec++
			return true
		})
		if err != nil || stopped {
			t.Fatalf("frame %d: decode err=%v stopped=%v", fi, err, stopped)
		}
	}
	if rec != len(tids) {
		t.Fatalf("decoded %d records, want %d", rec, len(tids))
	}
}

func TestScanListStatsMatchesMaterialized(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	const universe = 1000
	target := make(txn.Transaction, 0, 40)
	seen := map[int]bool{}
	for len(target) < 40 {
		it := rng.Intn(universe)
		if !seen[it] {
			seen[it] = true
			target = append(target, txn.Item(it))
		}
	}
	target = txn.New([]txn.Item(target)...)
	mask := bitset.New(universe)
	target.SetBits(mask)

	for _, cache := range []int64{0, 1 << 20} {
		s := NewStore(128)
		if cache > 0 {
			s.AttachDecodeCache(cache)
		}
		tids, txns := randomTxns(rng, 250)
		l, err := s.WriteList(tids, txns)
		if err != nil {
			t.Fatal(err)
		}
		s.Seal()
		for pass := 0; pass < 2; pass++ { // second pass exercises cache hits
			i := 0
			var reads atomic.Int64
			err = s.ScanListStats(l, &reads, mask, len(target), func(id txn.TID, x, y int) bool {
				wantX, wantY := txn.MatchHammingBits(mask, len(target), txns[i])
				if id != tids[i] || x != wantX || y != wantY {
					t.Fatalf("cache %d record %d: (%d, %d, %d), want (%d, %d, %d)",
						cache, i, id, x, y, tids[i], wantX, wantY)
				}
				i++
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
			if i != len(tids) {
				t.Fatalf("scanned %d records, want %d", i, len(tids))
			}
		}
		// Early stop must not error and must stop.
		n := 0
		err = s.ScanListStats(l, nil, mask, len(target), func(txn.TID, int, int) bool {
			n++
			return n < 5
		})
		if err != nil || n != 5 {
			t.Fatalf("early stop: n=%d err=%v", n, err)
		}
	}
}

func TestV2EmptyAndOversized(t *testing.T) {
	s := NewStore(64)
	l, err := s.WriteList(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if l.Count != 0 || len(l.Pages) != 0 {
		t.Fatalf("empty list = %+v", l)
	}
	// Empty transactions are legal records.
	le, err := s.WriteList([]txn.TID{7, 9}, []txn.Transaction{txn.New(), txn.New()})
	if err != nil {
		t.Fatal(err)
	}
	s.Seal()
	checkListEqual(t, s, le, []txn.TID{7, 9}, []txn.Transaction{txn.New(), txn.New()})

	// Wide gaps defeat the bit-packing: ~16 bits per item keeps even a
	// single-record frame well over the 64-byte page.
	big := make([]txn.Item, 200)
	for i := range big {
		big[i] = txn.Item(i * 50000)
	}
	_, err = s.WriteList([]txn.TID{1}, []txn.Transaction{txn.New(big...)})
	if err == nil || !strings.Contains(err.Error(), "exceeding page size") {
		t.Fatalf("oversized record error = %v", err)
	}
}

// TestV2SealGatesTail pins the write-once discipline: the
// tail page is only readable after Seal.
func TestV2SealGatesTail(t *testing.T) {
	s := NewStore(4096)
	tids, txns := randomTxns(rand.New(rand.NewSource(27)), 10)
	l, err := s.WriteList(tids, txns)
	if err != nil {
		t.Fatal(err)
	}
	s.Seal()
	checkListEqual(t, s, l, tids, txns)
	if got := s.Stats().Writes; got != 1 {
		t.Fatalf("Writes = %d, want 1 sealed tail page", got)
	}
	s.Seal() // idempotent
	if got := s.Stats().Writes; got != 1 {
		t.Fatalf("second Seal wrote: Writes = %d", got)
	}
}
