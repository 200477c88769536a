package core

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"sigtable/internal/txn"
)

// TestQuickCachedScansNeverStale is the decode-cache staleness
// property: a disk-backed table with the cache attached, mutated by an
// arbitrary interleaving of InsertSnapshot, DeleteSnapshot and Rebuild (the core of
// Compact), must answer every query — including repeat queries served
// from cached decodes, and shared-scan batches — identically to a twin
// memory-mode table receiving the same mutations. A missed invalidation
// would surface as a vanished insert, a resurrected delete, or a stale
// TID after the Rebuild renumbering.
func TestQuickCachedScansNeverStale(t *testing.T) {
	prop := func(seed int64, fRaw, opsRaw, budgetRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		universe := 20 + rng.Intn(20)
		n := 150 + rng.Intn(150)
		dMem := txn.NewDataset(universe)
		dDisk := txn.NewDataset(universe)
		for i := 0; i < n; i++ {
			tr := randomTarget(rng, universe)
			dMem.Append(tr)
			dDisk.Append(tr)
		}
		part := randomPartition(t, rng, universe, 5)
		// A tight budget exercises eviction and repopulation; a loose
		// one keeps everything resident across mutations.
		budget := int64(1 << 20)
		if budgetRaw%2 == 0 {
			budget = 1 << 14
		}
		mem, err := Build(dMem, part, BuildOptions{})
		if err != nil {
			return false
		}
		disk, err := Build(dDisk, part, BuildOptions{PageSize: 256, DecodeCacheBytes: budget})
		if err != nil {
			return false
		}
		fs := allSimFuncs()
		f := fs[int(fRaw)%len(fs)]
		opt := QueryOptions{K: 3}

		check := func() bool {
			tgt := randomTarget(rng, universe)
			var want Result
			// Twice: the second run is served from the decodes the first
			// one cached.
			for i := 0; i < 2; i++ {
				want, err = mem.Query(context.Background(), tgt, f, opt)
				if err != nil {
					return false
				}
				got, err := disk.Query(context.Background(), tgt, f, opt)
				if err != nil {
					return false
				}
				if !sameResult(t, want, got) {
					t.Logf("disk pass %d diverged from memory twin", i)
					return false
				}
			}
			// And through the shared-scan batch engine, which reads the
			// same cache.
			batch, err := disk.QueryBatch(context.Background(), []txn.Transaction{tgt, tgt}, f, opt, 1)
			if err != nil {
				return false
			}
			for j := range batch {
				if !sameResult(t, want, batch[j]) {
					t.Logf("shared-scan slot %d diverged from memory twin", j)
					return false
				}
			}
			return true
		}

		if !check() {
			return false
		}
		ops := 8 + int(opsRaw)%12
		for i := 0; i < ops; i++ {
			switch rng.Intn(5) {
			case 0, 1:
				tr := randomTarget(rng, universe)
				mem, _ = mem.InsertSnapshot(tr)
				disk, _ = disk.InsertSnapshot(tr)
			case 2, 3:
				id := txn.TID(rng.Intn(mem.Len()))
				var okMem, okDisk bool
				mem, okMem = mem.DeleteSnapshot(id)
				disk, okDisk = disk.DeleteSnapshot(id)
				if okMem != okDisk {
					t.Logf("twin tables disagree on deleting %d", id)
					return false
				}
			case 4:
				nm, err := mem.Rebuild()
				if err != nil {
					return false
				}
				nd, err := disk.Rebuild()
				if err != nil {
					return false
				}
				mem, disk = nm, nd
			}
			if !check() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
