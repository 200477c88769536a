package pager

import (
	"math/rand"
	"strings"
	"testing"

	"sigtable/internal/txn"
)

// FuzzPageCodec round-trips randomly generated lists through the page
// codec: every decoded record must equal the generated input, in
// order, and early stops must deliver exactly the requested prefix. The fuzz inputs seed a generator rather than feeding
// raw page bytes — the interesting surface is the encoder/decoder
// pair, including outlier frames (varint fallback), empty lists, empty
// transactions, and records straddling page boundaries.
func FuzzPageCodec(f *testing.F) {
	f.Add(int64(1), uint16(0), uint8(0))
	f.Add(int64(2), uint16(5), uint8(1))
	f.Add(int64(3), uint16(300), uint8(2))
	f.Add(int64(4), uint16(1000), uint8(3))
	f.Add(int64(5), uint16(64), uint8(4))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, shape uint8) {
		rng := rand.New(rand.NewSource(seed))
		count := int(n) % 1200
		tids := make([]txn.TID, count)
		txns := make([]txn.Transaction, count)
		sorted := shape%2 == 0
		for i := 0; i < count; i++ {
			if sorted {
				tids[i] = txn.TID(i * (1 + rng.Intn(5)))
			} else {
				tids[i] = txn.TID(rng.Intn(1 << 22))
			}
			var items []txn.Item
			switch shape % 4 {
			case 0: // dense small items: packed frames
				items = make([]txn.Item, rng.Intn(12))
				for j := range items {
					items[j] = txn.Item(rng.Intn(500))
				}
			case 1: // empty and near-empty records
				if rng.Intn(3) == 0 {
					items = make([]txn.Item, rng.Intn(2))
					for j := range items {
						items[j] = txn.Item(rng.Intn(100))
					}
				}
			case 2: // outlier items: wide gaps force the varint fallback
				items = make([]txn.Item, rng.Intn(8))
				for j := range items {
					items[j] = txn.Item(rng.Intn(1 << 30))
				}
			default: // long records: page-boundary pressure
				items = make([]txn.Item, 20+rng.Intn(40))
				for j := range items {
					items[j] = txn.Item(rng.Intn(1 << 16))
				}
			}
			txns[i] = txn.New(items...)
		}

		pageSize := 64 + rng.Intn(512)
		s := NewStore(pageSize)
		l, err := s.WriteList(tids, txns)
		if err != nil {
			// Only a record too large for any page may be rejected.
			if !strings.Contains(err.Error(), "exceeding page size") {
				t.Fatalf("WriteList: %v", err)
			}
			return
		}
		s.Seal()

		i := 0
		if err := s.ScanList(l, nil, func(id txn.TID, tr txn.Transaction) bool {
			if i >= count {
				t.Fatalf("decoded more than the %d records written", count)
			}
			if id != tids[i] || !tr.Equal(txns[i]) {
				t.Fatalf("record %d = (%d, %v), want (%d, %v)", i, id, tr, tids[i], txns[i])
			}
			i++
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if i != count {
			t.Fatalf("decoded %d records, want %d", i, count)
		}

		if count > 0 {
			// Early stop must deliver exactly the prefix.
			stopAt := 1 + rng.Intn(count)
			seen := 0
			if err := s.ScanList(l, nil, func(txn.TID, txn.Transaction) bool {
				seen++
				return seen < stopAt
			}); err != nil {
				t.Fatal(err)
			}
			if seen != stopAt {
				t.Fatalf("early stop after %d delivered %d", stopAt, seen)
			}
		}
	})
}
