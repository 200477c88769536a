package pager

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"sigtable/internal/txn"
)

// TestQuickStagedLayoutIdentity is the staged API's core property: for
// arbitrary batches of lists and page sizes, staging every list first
// and then appending them in list order produces a store whose page
// count, per-list handles and raw page bytes are identical to writing
// the same lists serially with WriteList.
func TestQuickStagedLayoutIdentity(t *testing.T) {
	prop := func(seed int64, sizeRaw, listsRaw uint8) bool {
		pageSize := 64 + int(sizeRaw)*8
		numLists := 1 + int(listsRaw)%12
		rng := rand.New(rand.NewSource(seed))

		type batch struct {
			tids []txn.TID
			txns []txn.Transaction
		}
		batches := make([]batch, numLists)
		for i := range batches {
			tids, txns := randomTxns(rng, rng.Intn(60))
			batches[i] = batch{tids, txns}
		}

		serial := NewStore(pageSize)
		serialLists := make([]List, numLists)
		for i, b := range batches {
			l, err := serial.WriteList(b.tids, b.txns)
			if err != nil {
				return false
			}
			serialLists[i] = l
		}
		serial.Seal()

		staged := NewStore(pageSize)
		stagedParts := make([]*StagedList, numLists)
		for i, b := range batches {
			st, err := staged.StageList(b.tids, b.txns)
			if err != nil {
				return false
			}
			stagedParts[i] = st
		}
		stagedLists := make([]List, numLists)
		for i, st := range stagedParts {
			stagedLists[i] = staged.AppendStaged(st)
		}
		staged.Seal()

		if serial.NumPages() != staged.NumPages() {
			t.Logf("page counts differ: serial %d, staged %d", serial.NumPages(), staged.NumPages())
			return false
		}
		if serial.Stats().Writes != staged.Stats().Writes {
			t.Logf("write counters differ: serial %d, staged %d", serial.Stats().Writes, staged.Stats().Writes)
			return false
		}
		for i := range serialLists {
			sl, pl := serialLists[i], stagedLists[i]
			if sl.Count != pl.Count || sl.Start != pl.Start || len(sl.Pages) != len(pl.Pages) {
				t.Logf("list %d handles differ: %+v vs %+v", i, sl, pl)
				return false
			}
			for j := range sl.Pages {
				if sl.Pages[j] != pl.Pages[j] {
					t.Logf("list %d page %d: serial id %d, staged id %d", i, j, sl.Pages[j], pl.Pages[j])
					return false
				}
			}
		}
		for id := 0; id < serial.NumPages(); id++ {
			a, err1 := serial.back.read(PageID(id))
			b, err2 := staged.back.read(PageID(id))
			if err1 != nil || err2 != nil || !bytes.Equal(a, b) {
				t.Logf("page %d bytes differ", id)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestStagedListRoundTrip: a staged-and-appended list decodes back to
// the exact transactions, including through the file backend.
func TestStagedListRoundTrip(t *testing.T) {
	for _, backend := range []string{"mem", "file"} {
		t.Run(backend, func(t *testing.T) {
			var s *Store
			if backend == "file" {
				var err error
				s, err = NewFileStore(t.TempDir()+"/pages.dat", 128)
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
			} else {
				s = NewStore(128)
			}
			rng := rand.New(rand.NewSource(9))
			tids, txns := randomTxns(rng, 120)
			st, err := s.StageList(tids, txns)
			if err != nil {
				t.Fatal(err)
			}
			list := s.AppendStaged(st)
			s.Seal()
			i := 0
			err = s.ScanList(list, nil, func(id txn.TID, tr txn.Transaction) bool {
				if id != tids[i] || !tr.Equal(txns[i]) {
					t.Fatalf("record %d: got (%d, %v), want (%d, %v)", i, id, tr, tids[i], txns[i])
				}
				i++
				return true
			})
			if err != nil || i != len(txns) {
				t.Fatalf("scan: err=%v, decoded %d of %d", err, i, len(txns))
			}
		})
	}
}
