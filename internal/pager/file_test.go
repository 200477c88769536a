package pager

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"sigtable/internal/txn"
)

func TestFileStoreRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.dat")
	s, err := NewFileStore(path, 256)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	rng := rand.New(rand.NewSource(1))
	tids, txns := randomTxns(rng, 150)
	list, err := s.WriteList(tids, txns)
	if err != nil {
		t.Fatal(err)
	}
	s.Seal()
	i := 0
	err = s.ScanList(list, nil, func(id txn.TID, tr txn.Transaction) bool {
		if id != tids[i] || !tr.Equal(txns[i]) {
			t.Fatalf("record %d mismatch", i)
		}
		i++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if i != 150 {
		t.Fatalf("scanned %d", i)
	}
	if s.NumPages() != len(list.Pages) {
		t.Fatalf("NumPages = %d, want %d", s.NumPages(), len(list.Pages))
	}
}

func TestFileStoreMatchesMemoryStore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.dat")
	fs, err := NewFileStore(path, 128)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	ms := NewStore(128)

	rng := rand.New(rand.NewSource(2))
	tids, txns := randomTxns(rng, 200)
	fl, err := fs.WriteList(tids, txns)
	if err != nil {
		t.Fatal(err)
	}
	fs.Seal()
	ml, err := ms.WriteList(tids, txns)
	if err != nil {
		t.Fatal(err)
	}
	ms.Seal()
	if len(fl.Pages) != len(ml.Pages) {
		t.Fatalf("page counts differ: file %d vs mem %d", len(fl.Pages), len(ml.Pages))
	}

	var fromFile, fromMem []txn.Transaction
	if err := fs.ScanList(fl, nil, func(_ txn.TID, tr txn.Transaction) bool {
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
	for i := range fromFile {
		if !fromFile[i].Equal(fromMem[i]) {
			t.Fatalf("record %d differs between backends", i)
		}
	}
}

func TestFileStoreWithPool(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.dat")
	s, err := NewFileStore(path, 128)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(3))
	tids, txns := randomTxns(rng, 100)
	list, err := s.WriteList(tids, txns)
	if err != nil {
		t.Fatal(err)
	}
	s.Seal()
	s.AttachPool(len(list.Pages) + 2)
	s.ResetStats()
	for pass := 0; pass < 2; pass++ {
		if err := s.ScanList(list, nil, func(txn.TID, txn.Transaction) bool { return true }); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Misses != int64(len(list.Pages)) {
		t.Fatalf("Misses = %d, want %d", st.Misses, len(list.Pages))
	}
}

func TestMemoryStoreClose(t *testing.T) {
	if err := NewStore(0).Close(); err != nil {
		t.Fatal(err)
	}
}

func TestFileStoreBadPath(t *testing.T) {
	if _, err := NewFileStore(filepath.Join(t.TempDir(), "no", "such", "dir", "f"), 128); err == nil {
		t.Fatal("impossible path accepted")
	}
}

// TestFileStoreParallelReaders hammers one file-backed store with
// concurrent scans while a writer appends and seals fresh lists — the
// snapshot overflow flush's pattern. With the positional pread/pwrite
// path there is no shared file offset; under -race this pins down that
// only the count counter is shared state. The second pass attaches a buffer pool smaller than
// the lists, so concurrent coalesced runs race pool admission and
// eviction as well.
func TestFileStoreParallelReaders(t *testing.T) {
	for _, poolPages := range []int{0, 16} {
		parallelReaders(t, poolPages)
	}
}

func parallelReaders(t *testing.T, poolPages int) {
	path := filepath.Join(t.TempDir(), "pages.dat")
	s, err := NewFileStore(path, 128)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if poolPages > 0 {
		s.AttachPool(poolPages)
	}

	rng := rand.New(rand.NewSource(9))
	const nLists = 12
	lists := make([]List, nLists)
	want := make([][]txn.TID, nLists)
	for i := range lists {
		tids, txns := randomTxns(rng, 80)
		l, err := s.WriteList(tids, txns)
		if err != nil {
			t.Fatal(err)
		}
		lists[i], want[i] = l, tids
	}
	s.Seal()

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 60; i++ {
				li := r.Intn(nLists)
				j := 0
				err := s.ScanList(lists[li], nil, func(id txn.TID, _ txn.Transaction) bool {
					if id != want[li][j] {
						errs <- fmt.Errorf("list %d record %d: TID %d, want %d", li, j, id, want[li][j])
						return false
					}
					j++
					return true
				})
				if err != nil {
					errs <- err
					return
				}
			}
		}(int64(40 + w))
	}
	// One writer (writes are serial) appending fresh pages while the
	// readers run.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 30; i++ {
			l, err := s.WriteList([]txn.TID{7}, []txn.Transaction{txn.New(1, 2, 3)})
			if err != nil {
				errs <- err
				return
			}
			s.Seal()
			if err := s.ScanList(l, nil, func(id txn.TID, _ txn.Transaction) bool { return id == 7 }); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
