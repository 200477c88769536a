package pager

import (
	"math/rand"
	"strings"
	"testing"

	"sigtable/internal/txn"
)

func randomTxns(rng *rand.Rand, n int) ([]txn.TID, []txn.Transaction) {
	tids := make([]txn.TID, n)
	txns := make([]txn.Transaction, n)
	for i := range txns {
		tids[i] = txn.TID(rng.Intn(1 << 20))
		items := make([]txn.Item, rng.Intn(15))
		for j := range items {
			items[j] = txn.Item(rng.Intn(1000))
		}
		txns[i] = txn.New(items...)
	}
	return tids, txns
}

func TestWriteScanRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := NewStore(256) // small pages force multi-page lists
	tids, txns := randomTxns(rng, 200)
	list, err := s.WriteList(tids, txns)
	if err != nil {
		t.Fatal(err)
	}
	s.Seal()
	if list.Count != 200 {
		t.Fatalf("Count = %d", list.Count)
	}
	if len(list.Pages) < 2 {
		t.Fatalf("expected multiple pages, got %d", len(list.Pages))
	}

	i := 0
	err = s.ScanList(list, nil, func(id txn.TID, tr txn.Transaction) bool {
		if id != tids[i] || !tr.Equal(txns[i]) {
			t.Fatalf("record %d = (%d, %v), want (%d, %v)", i, id, tr, tids[i], txns[i])
		}
		i++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if i != 200 {
		t.Fatalf("scanned %d records", i)
	}
	if got := s.Stats().Reads; got != int64(len(list.Pages)) {
		t.Fatalf("Reads = %d, want %d", got, len(list.Pages))
	}
}

func TestScanEarlyStopSavesIO(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	s := NewStore(128)
	tids, txns := randomTxns(rng, 300)
	list, err := s.WriteList(tids, txns)
	if err != nil {
		t.Fatal(err)
	}
	s.Seal()
	s.ResetStats()
	n := 0
	err = s.ScanList(list, nil, func(txn.TID, txn.Transaction) bool {
		n++
		return n < 3
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Reads; got != 1 {
		t.Fatalf("early stop read %d pages, want 1", got)
	}
}

func TestWriteListMismatchedArgs(t *testing.T) {
	s := NewStore(0)
	if _, err := s.WriteList([]txn.TID{1}, nil); err == nil {
		t.Fatal("mismatched lengths accepted")
	}
}

func TestWriteListOversizedRecord(t *testing.T) {
	s := NewStore(64)
	big := make([]txn.Item, 200)
	for i := range big {
		big[i] = txn.Item(i * 5)
	}
	if _, err := s.WriteList([]txn.TID{1}, []txn.Transaction{txn.New(big...)}); err == nil {
		t.Fatal("oversized record accepted")
	}
}

func TestEmptyList(t *testing.T) {
	s := NewStore(0)
	list, err := s.WriteList(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	s.Seal()
	if list.Count != 0 || len(list.Pages) != 0 {
		t.Fatalf("list = %+v", list)
	}
	if err := s.ScanList(list, nil, func(txn.TID, txn.Transaction) bool { return true }); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyTransactionsSurvive(t *testing.T) {
	s := NewStore(0)
	list, err := s.WriteList([]txn.TID{5, 6}, []txn.Transaction{txn.New(), txn.New(3)})
	if err != nil {
		t.Fatal(err)
	}
	s.Seal()
	var got []txn.Transaction
	if err := s.ScanList(list, nil, func(_ txn.TID, tr txn.Transaction) bool {
		got = append(got, tr)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Len() != 0 || !got[1].Equal(txn.New(3)) {
		t.Fatalf("got %v", got)
	}
}

func TestDefaultPageSize(t *testing.T) {
	if NewStore(0).PageSize() != DefaultPageSize {
		t.Fatal("default page size not applied")
	}
}

func TestTinyPageSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("page size 10 accepted")
		}
	}()
	NewStore(10)
}

func TestReadUnallocatedPagePanics(t *testing.T) {
	s := NewStore(0)
	defer func() {
		r := recover()
		if r == nil || !strings.Contains(r.(string), "unallocated") {
			t.Fatalf("recover = %v", r)
		}
	}()
	rr := newRunReader(s, []PageID{7}, nil)
	rr.next()
}

func TestPoolAbsorbsRepeatedReads(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := NewStore(128)
	tids, txns := randomTxns(rng, 100)
	list, err := s.WriteList(tids, txns)
	if err != nil {
		t.Fatal(err)
	}
	s.Seal()
	s.AttachPool(len(list.Pages) + 4)
	s.ResetStats()
	for pass := 0; pass < 3; pass++ {
		if err := s.ScanList(list, nil, func(txn.TID, txn.Transaction) bool { return true }); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Reads != 3*int64(len(list.Pages)) {
		t.Fatalf("Reads = %d", st.Reads)
	}
	if st.Misses != int64(len(list.Pages)) {
		t.Fatalf("Misses = %d, want %d (only the first pass)", st.Misses, len(list.Pages))
	}
}
