package pager

import (
	"math/rand"
	"testing"
	"testing/quick"

	"sigtable/internal/txn"
)

// TestQuickListRoundTrip: any transaction list round-trips through any
// reasonable page size, with and without a buffer pool.
func TestQuickListRoundTrip(t *testing.T) {
	f := func(seed int64, sizeRaw uint8, pool bool) bool {
		pageSize := 64 + int(sizeRaw)*8
		rng := rand.New(rand.NewSource(seed))
		s := NewStore(pageSize)
		if pool {
			s.AttachPool(4)
		}
		n := rng.Intn(120)
		tids, txns := randomTxns(rng, n)
		list, err := s.WriteList(tids, txns)
		if err != nil {
			return false
		}
		s.Seal()
		if list.Count != n {
			return false
		}
		i := 0
		err = s.ScanList(list, nil, func(id txn.TID, tr txn.Transaction) bool {
			if id != tids[i] || !tr.Equal(txns[i]) {
				return false
			}
			i++
			return true
		})
		return err == nil && i == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
