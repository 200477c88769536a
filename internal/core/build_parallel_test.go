package core

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"
)

// forceParallelBuild drops the dataset-size gate so the parallel build
// pipeline runs on small test fixtures.
func forceParallelBuild(t testing.TB) {
	old := minBuildChunk
	minBuildChunk = 0
	t.Cleanup(func() { minBuildChunk = old })
}

// sameTable compares everything a build determines: entry count and
// order, coordinates, counts, per-entry TID lists, and in disk mode
// the exact page layout (page IDs per entry and total page count).
func sameTable(t *testing.T, serial, parallel *Table) bool {
	t.Helper()
	if len(serial.entries) != len(parallel.entries) {
		t.Logf("entry counts differ: %d vs %d", len(serial.entries), len(parallel.entries))
		return false
	}
	for i := range serial.entries {
		se, pe := serial.entries[i], parallel.entries[i]
		if se.Coord != pe.Coord || se.Count != pe.Count {
			t.Logf("entry %d differs: (%#x, %d) vs (%#x, %d)", i, se.Coord, se.Count, pe.Coord, pe.Count)
			return false
		}
		sTids, pTids := serial.TIDs(se), parallel.TIDs(pe)
		if len(sTids) != len(pTids) {
			t.Logf("entry %#x TID counts differ: %d vs %d", se.Coord, len(sTids), len(pTids))
			return false
		}
		for j := range sTids {
			if sTids[j] != pTids[j] {
				t.Logf("entry %#x TID %d differs: %d vs %d", se.Coord, j, sTids[j], pTids[j])
				return false
			}
		}
		if len(se.lists) != len(pe.lists) {
			t.Logf("entry %#x segment counts differ: %d vs %d", se.Coord, len(se.lists), len(pe.lists))
			return false
		}
		for s := range se.lists {
			sl, pl := se.lists[s], pe.lists[s]
			if len(sl.Pages) != len(pl.Pages) || sl.Count != pl.Count {
				t.Logf("entry %#x segment %d shapes differ: %+v vs %+v", se.Coord, s, sl, pl)
				return false
			}
			for j := range sl.Pages {
				if sl.Pages[j] != pl.Pages[j] {
					t.Logf("entry %#x segment %d page %d differs: %d vs %d", se.Coord, s, j, sl.Pages[j], pl.Pages[j])
					return false
				}
			}
		}
	}
	if (serial.store == nil) != (parallel.store == nil) {
		t.Log("storage modes differ")
		return false
	}
	if serial.store != nil && serial.store.NumPages() != parallel.store.NumPages() {
		t.Logf("page counts differ: %d vs %d", serial.store.NumPages(), parallel.store.NumPages())
		return false
	}
	return true
}

// TestQuickParallelBuildMatchesSerial is the build pipeline's tentpole
// property: for arbitrary datasets, partitions, activation thresholds,
// worker counts and page sizes, the parallel build produces a table
// identical to the serial build — same entries, same supercoordinates,
// same TID order, same page layout — and the table validates clean.
func TestQuickParallelBuildMatchesSerial(t *testing.T) {
	forceParallelBuild(t)
	prop := func(seed int64, kRaw, rRaw, workersRaw, diskRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		universe := 15 + rng.Intn(30)
		d := randomDataset(rng, 100+rng.Intn(400), universe)
		part := randomPartition(t, rng, universe, 2+int(kRaw)%8)
		opt := BuildOptions{ActivationThreshold: 1 + int(rRaw)%2, Parallelism: 1}
		switch diskRaw % 3 {
		case 0:
			opt.PageSize = 128 + 8*int(diskRaw)
		case 1:
			opt.PageSize = 4096
			opt.BufferPoolPages = 8
		}

		serial, err := Build(d, part, opt)
		if err != nil {
			return false
		}
		if err := serial.Validate(); err != nil {
			t.Logf("serial build invalid: %v", err)
			return false
		}

		for _, workers := range []int{2, 3, 2 + int(workersRaw)%14, 0} {
			popt := opt
			popt.Parallelism = workers
			parallel, err := Build(d, part, popt)
			if err != nil {
				t.Logf("workers=%d: %v", workers, err)
				return false
			}
			if !sameTable(t, serial, parallel) {
				t.Logf("workers=%d opt=%+v", workers, popt)
				return false
			}
			if err := parallel.Validate(); err != nil {
				t.Logf("workers=%d: parallel build invalid: %v", workers, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestParallelBuildQueriesAgree: a query against a parallel-built
// table answers exactly as against the serial-built one (the layouts
// are identical, so this is a smoke check that the query path sees no
// difference at all).
func TestParallelBuildQueriesAgree(t *testing.T) {
	forceParallelBuild(t)
	rng := rand.New(rand.NewSource(42))
	d := randomDataset(rng, 600, 40)
	part := randomPartition(t, rng, 40, 6)

	serial := buildTestTable(t, d, part, BuildOptions{PageSize: 256, Parallelism: 1})
	parallel := buildTestTable(t, d, part, BuildOptions{PageSize: 256, Parallelism: 4})

	for q := 0; q < 50; q++ {
		target := randomTarget(rng, 40)
		for _, f := range allSimFuncs() {
			sRes, err1 := serial.Query(context.Background(), target, f, QueryOptions{K: 3})
			pRes, err2 := parallel.Query(context.Background(), target, f, QueryOptions{K: 3})
			if err1 != nil || err2 != nil {
				t.Fatalf("query errors: %v, %v", err1, err2)
			}
			if len(sRes.Neighbors) != len(pRes.Neighbors) {
				t.Fatalf("neighbor counts differ for %T", f)
			}
			for i := range sRes.Neighbors {
				if sRes.Neighbors[i] != pRes.Neighbors[i] {
					t.Fatalf("neighbor %d differs for %T: %+v vs %+v", i, f, sRes.Neighbors[i], pRes.Neighbors[i])
				}
			}
			if sRes.Scanned != pRes.Scanned || sRes.PagesRead != pRes.PagesRead {
				t.Fatalf("cost differs for %T: scanned %d/%d pages %d/%d", f, sRes.Scanned, pRes.Scanned, sRes.PagesRead, pRes.PagesRead)
			}
		}
	}
}

// TestBuildStatsRecorded: every build records phase wall times and the
// resolved worker count, and Rebuild carries the parallelism forward.
func TestBuildStatsRecorded(t *testing.T) {
	forceParallelBuild(t)
	rng := rand.New(rand.NewSource(7))
	d := randomDataset(rng, 300, 25)
	part := randomPartition(t, rng, 25, 5)

	table := buildTestTable(t, d, part, BuildOptions{PageSize: 256, Parallelism: 3})
	st := table.BuildStats()
	if st.Workers != 3 {
		t.Fatalf("Workers = %d, want 3", st.Workers)
	}
	if st.Total() <= 0 {
		t.Fatalf("Total = %v, want > 0", st.Total())
	}
	if st.Write <= 0 {
		t.Fatalf("Write = %v, want > 0 in disk mode", st.Write)
	}

	table, _ = table.DeleteSnapshot(1)
	rebuilt, err := table.Rebuild()
	if err != nil {
		t.Fatal(err)
	}
	if got := rebuilt.BuildStats().Workers; got != 3 {
		t.Fatalf("rebuilt Workers = %d, want inherited 3", got)
	}
	if err := rebuilt.Validate(); err != nil {
		t.Fatal(err)
	}
}
