package sigtable

import (
	"context"
	"math/rand"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sigtable/internal/core"
)

// snapshotOp is one step of a deterministic mutation script: an insert
// of a generated transaction, or a delete of a TID known to be live at
// that point. Every op publishes exactly one snapshot, so version v
// corresponds to the script prefix ops[:v-v0].
type snapshotOp struct {
	insert Transaction
	delete TID
	isDel  bool
}

// snapshotScript builds a deterministic op sequence over an index
// seeded with n transactions: deletes target distinct initial TIDs
// (always live when reached), inserts are regenerable from the seed.
func snapshotScript(n, ops int, seed int64, universe int) []snapshotOp {
	rng := rand.New(rand.NewSource(seed))
	script := make([]snapshotOp, ops)
	nextDel := TID(0)
	for i := range script {
		if i%5 == 4 && int(nextDel) < n {
			script[i] = snapshotOp{isDel: true, delete: nextDel}
			nextDel++
		} else {
			items := make([]Item, 0, 6)
			for len(items) < 3 {
				items = append(items, Item(rng.Intn(universe)))
			}
			script[i] = snapshotOp{insert: NewTransaction(items...)}
		}
	}
	return script
}

// TestSnapshotByteIdentity is the snapshot-isolation property test:
// while a writer applies a deterministic mutation script, concurrent
// readers pin snapshots mid-flight and query them; afterwards each
// captured result must byte-match a serialized replay of the script
// prefix the snapshot's version identifies. Runs in memory and on
// disk pages, with a small flush threshold so captures straddle
// overflow flushes.
func TestSnapshotByteIdentity(t *testing.T) {
	variants := []struct {
		name string
		opt  IndexOptions
	}{
		{"memory", IndexOptions{SignatureCardinality: 8}},
		{"disk-v2", IndexOptions{SignatureCardinality: 8, PageSize: 256, FlushThreshold: 4, DecodeCacheBytes: 1 << 18}},
	}
	const (
		n       = 400
		ops     = 250
		readers = 4
	)
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			data := testDataset(t, n, 31)
			idx, err := BuildIndex(data, v.opt)
			if err != nil {
				t.Fatal(err)
			}
			script := snapshotScript(n, ops, 99, data.UniverseSize())
			v0 := idx.Table().Version()

			type capture struct {
				version uint64
				target  Transaction
				res     core.Result
			}
			captures := make([][]capture, readers)
			var running atomic.Bool
			running.Store(true)
			var wg sync.WaitGroup
			fail := make(chan error, readers)
			for w := 0; w < readers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(500 + w)))
					for running.Load() || len(captures[w]) < 5 {
						items := make([]Item, 0, 6)
						for len(items) < 3 {
							items = append(items, Item(rng.Intn(data.UniverseSize())))
						}
						target := NewTransaction(items...)
						// Pin one snapshot; version and result both come
						// from the same immutable table.
						snap := idx.Table()
						res, err := snap.Query(context.Background(), target, Jaccard{}, core.QueryOptions{K: 4})
						if err != nil {
							fail <- err
							return
						}
						captures[w] = append(captures[w], capture{version: snap.Version(), target: target, res: res})
					}
				}(w)
			}

			for _, op := range script {
				if op.isDel {
					if !idx.Delete(op.delete) {
						t.Errorf("script delete of live TID %d refused", op.delete)
					}
				} else {
					idx.Insert(op.insert)
				}
			}
			running.Store(false)
			wg.Wait()
			close(fail)
			for err := range fail {
				t.Fatal(err)
			}
			if got := idx.SnapshotVersion(); got != v0+uint64(ops) {
				t.Fatalf("snapshot version %d after %d ops (started at %d)", got, ops, v0)
			}

			// Serialized replay: a fresh index over a regenerated copy of
			// the seed dataset, advanced through the same script. Each
			// capture's version names the prefix it must match.
			var all []capture
			for _, c := range captures {
				all = append(all, c...)
			}
			sort.Slice(all, func(i, j int) bool { return all[i].version < all[j].version })
			replayData := testDataset(t, n, 31)
			replay, err := BuildIndex(replayData, v.opt)
			if err != nil {
				t.Fatal(err)
			}
			defer replay.Close()
			applied := uint64(0)
			for _, c := range all {
				for applied < c.version-v0 {
					op := script[applied]
					if op.isDel {
						replay.Delete(op.delete)
					} else {
						replay.Insert(op.insert)
					}
					applied++
				}
				want, err := replay.Table().Query(context.Background(), c.target, Jaccard{}, core.QueryOptions{K: 4})
				if err != nil {
					t.Fatal(err)
				}
				if c.res.Scanned != want.Scanned || c.res.EntriesScanned != want.EntriesScanned ||
					c.res.EntriesPruned != want.EntriesPruned || c.res.Certified != want.Certified ||
					len(c.res.Neighbors) != len(want.Neighbors) {
					t.Fatalf("version %d: captured cost %+v, replay %+v", c.version, c.res, want)
				}
				for i := range want.Neighbors {
					if c.res.Neighbors[i] != want.Neighbors[i] {
						t.Fatalf("version %d: captured neighbors %v, replay %v",
							c.version, c.res.Neighbors, want.Neighbors)
					}
				}
			}
			if err := idx.Validate(); err != nil {
				t.Fatal(err)
			}
			if err := idx.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSnapshotShardedMatchesSingle applies the same mutation script to
// a single-table index and a sharded one and checks the engines answer
// identically afterwards — the cross-engine half of the snapshot
// byte-identity property.
func TestSnapshotShardedMatchesSingle(t *testing.T) {
	const n = 400
	data := testDataset(t, n, 33)
	shardedData := testDataset(t, n, 33)
	single, err := BuildIndex(data, IndexOptions{SignatureCardinality: 8, PageSize: 256, FlushThreshold: 4})
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := NewSharded(shardedData, IndexOptions{SignatureCardinality: 8, PageSize: 256, FlushThreshold: 4, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range snapshotScript(n, 200, 42, data.UniverseSize()) {
		if op.isDel {
			a, b := single.Delete(op.delete), sharded.Delete(op.delete)
			if a != b {
				t.Fatalf("Delete(%d): single=%v sharded=%v", op.delete, a, b)
			}
		} else {
			a, b := single.Insert(op.insert), sharded.Insert(op.insert)
			if a != b {
				t.Fatalf("insert TIDs diverge: %d vs %d", a, b)
			}
		}
	}
	if single.SnapshotVersion() == 0 || sharded.SnapshotVersion() == 0 {
		t.Fatal("snapshot versions did not advance")
	}

	rng := rand.New(rand.NewSource(7))
	for q := 0; q < 25; q++ {
		items := make([]Item, 0, 6)
		for len(items) < 3 {
			items = append(items, Item(rng.Intn(data.UniverseSize())))
		}
		target := NewTransaction(items...)
		a, err := single.Query(context.Background(), target, Jaccard{}, SearchOptions{K: 5, Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		b, err := sharded.Query(context.Background(), target, Jaccard{}, SearchOptions{K: 5})
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Neighbors) != len(b.Neighbors) {
			t.Fatalf("neighbor counts diverge: %d vs %d", len(a.Neighbors), len(b.Neighbors))
		}
		for i := range a.Neighbors {
			if a.Neighbors[i] != b.Neighbors[i] {
				t.Fatalf("engines diverge after snapshot mutations: %v vs %v", a.Neighbors, b.Neighbors)
			}
		}
	}
	if err := single.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := sharded.Validate(); err != nil {
		t.Fatal(err)
	}
}

// waitGoroutines polls until the live goroutine count drops to at most
// want, failing after five seconds. Counting goroutines is inherently
// racy against the runtime's own background work, so the assertions
// here compare against a baseline taken in the same test.
func waitGoroutines(t *testing.T, label string, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines still live, want <= %d", label, runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSnapshotHammer is the race-detector proof for the snapshot
// engine (`make race-snapshot` runs it): queries, inserts, deletes,
// threshold-triggered overflow flushes and full compactions all race
// on one disk-backed pooled index, then the index is validated and
// closed with no goroutine left behind.
func TestSnapshotHammer(t *testing.T) {
	baseline := runtime.NumGoroutine()
	data := testDataset(t, 400, 35)
	idx, err := BuildIndex(data, IndexOptions{
		SignatureCardinality: 8,
		PageSize:             256,
		PageFile:             filepath.Join(t.TempDir(), "pages.dat"),
		BufferPoolPages:      64,
		DecodeCacheBytes:     1 << 18,
		FlushThreshold:       4,
	})
	if err != nil {
		t.Fatal(err)
	}
	universe := data.UniverseSize()
	newTarget := func(rng *rand.Rand) Transaction {
		items := make([]Item, 0, 8)
		for len(items) < 3 {
			items = append(items, Item(rng.Intn(universe)))
		}
		return NewTransaction(items...)
	}

	const (
		queryWorkers   = 4
		queriesPerGoro = 40
		inserts        = 200
		deleteAttempts = 100
		compactions    = 2
	)
	var wg sync.WaitGroup
	fail := make(chan error, queryWorkers+3)

	for w := 0; w < queryWorkers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < queriesPerGoro; i++ {
				target := newTarget(rng)
				switch i % 3 {
				case 0:
					// Repeat so the second run reads cached decodes the
					// mutators are concurrently invalidating per list.
					for j := 0; j < 2; j++ {
						if _, err := idx.Query(context.Background(), target, Jaccard{}, SearchOptions{K: 3}); err != nil {
							fail <- err
							return
						}
					}
				case 1:
					if _, err := idx.RangeQuery(context.Background(), target,
						[]RangeConstraint{{F: MatchSimilarity{}, Threshold: 1}}, SearchOptions{Parallelism: 2}); err != nil {
						fail <- err
						return
					}
				case 2:
					if _, err := idx.BatchQuery(context.Background(),
						[]Transaction{target, newTarget(rng), target}, Cosine{},
						SearchOptions{K: 2, SharedScan: true, Parallelism: 2}); err != nil {
						fail <- err
						return
					}
				}
			}
		}(int64(600 + w))
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(61))
		// Insert duplicates of a few hot transactions so single entries
		// cross the flush threshold repeatedly under load.
		hot := []Transaction{newTarget(rng), newTarget(rng)}
		for i := 0; i < inserts; i++ {
			if i%2 == 0 {
				idx.Insert(hot[i%len(hot)])
			} else {
				idx.Insert(newTarget(rng))
			}
		}
	}()

	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(62))
		for i := 0; i < deleteAttempts; i++ {
			idx.Delete(TID(rng.Intn(400)))
		}
	}()

	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < compactions; i++ {
			if err := idx.Compact(1); err != nil {
				fail <- err
				return
			}
		}
	}()

	wg.Wait()
	close(fail)
	for err := range fail {
		t.Fatal(err)
	}

	if st := idx.OverflowStats(); st.Transactions == 0 {
		t.Fatalf("hammer never exercised the overflow path: %+v", st)
	}
	if idx.SnapshotVersion() == 0 {
		t.Fatal("snapshot version never advanced")
	}
	if err := idx.Validate(); err != nil {
		t.Fatalf("index invalid after hammering: %v", err)
	}
	if err := idx.Close(); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, "after Close", baseline)
}
