package shard

import (
	"bytes"
	"context"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"sigtable/internal/cluster"
	"sigtable/internal/core"
	"sigtable/internal/signature"
	"sigtable/internal/simfun"
	"sigtable/internal/txn"
)

// Shared fixtures (mirroring internal/core's test helpers).

func randomDataset(rng *rand.Rand, n, universe int) *txn.Dataset {
	d := txn.NewDataset(universe)
	numPatterns := 5 + universe/10
	patterns := make([][]txn.Item, numPatterns)
	for i := range patterns {
		size := 2 + rng.Intn(5)
		items := make([]txn.Item, size)
		for j := range items {
			items[j] = txn.Item(rng.Intn(universe))
		}
		patterns[i] = items
	}
	for i := 0; i < n; i++ {
		var items []txn.Item
		for len(items) < 1+rng.Intn(8) {
			p := patterns[rng.Intn(numPatterns)]
			items = append(items, p[rng.Intn(len(p))])
		}
		d.Append(txn.New(items...))
	}
	return d
}

func randomPartition(t testing.TB, rng *rand.Rand, universe, k int) *signature.Partition {
	t.Helper()
	sets, err := cluster.Random(universe, k, rng)
	if err != nil {
		t.Fatal(err)
	}
	part, err := signature.NewPartition(universe, sets)
	if err != nil {
		t.Fatal(err)
	}
	return part
}

func randomTarget(rng *rand.Rand, universe int) txn.Transaction {
	items := make([]txn.Item, 1+rng.Intn(8))
	for j := range items {
		items[j] = txn.Item(rng.Intn(universe))
	}
	return txn.New(items...)
}

func allSimFuncs() []simfun.Func {
	return []simfun.Func{
		simfun.Hamming{},
		simfun.Match{},
		simfun.MatchHammingRatio{},
		simfun.Cosine{},
		simfun.Jaccard{},
		simfun.Dice{},
	}
}

// sameResult compares every deterministic Result field. Workers,
// EntriesSpeculated and PagesRead are execution reports, not answers,
// and legitimately differ between the single and sharded engines.
func sameResult(t *testing.T, single, sharded core.Result) bool {
	t.Helper()
	if len(single.Neighbors) != len(sharded.Neighbors) {
		t.Logf("neighbor counts differ: single %d, sharded %d", len(single.Neighbors), len(sharded.Neighbors))
		return false
	}
	for i := range single.Neighbors {
		if single.Neighbors[i] != sharded.Neighbors[i] {
			t.Logf("neighbor %d differs: single %+v, sharded %+v", i, single.Neighbors[i], sharded.Neighbors[i])
			return false
		}
	}
	if single.Scanned != sharded.Scanned ||
		single.EntriesScanned != sharded.EntriesScanned ||
		single.EntriesPruned != sharded.EntriesPruned ||
		single.Certified != sharded.Certified ||
		single.Interrupted != sharded.Interrupted ||
		single.BestPossible != sharded.BestPossible {
		t.Logf("cost/certificate fields differ:\nsingle  %+v\nsharded %+v", single, sharded)
		return false
	}
	return true
}

// mutation scripts one Insert or Delete, applied identically to the
// reference table and every sharded instance.
type mutation struct {
	insert txn.Transaction // nil = delete
	delete txn.TID
}

func randomMutations(rng *rand.Rand, n, universe, count int) []mutation {
	muts := make([]mutation, count)
	next := n
	for i := range muts {
		if rng.Intn(3) == 0 && next > 0 {
			muts[i] = mutation{delete: txn.TID(rng.Intn(next))}
		} else {
			muts[i] = mutation{insert: randomTarget(rng, universe)}
			next++
		}
	}
	return muts
}

var shardCounts = []int{1, 2, 3, 7}

// TestQuickShardedMatchesSingle is the tentpole property: for random
// datasets, partitions, similarity functions, k, entry orderings, scan
// budgets, disk modes, shard counts and mutation interleavings, the
// sharded scatter-gather engine returns byte-identical answers and
// cost counters to a single table over the same data.
func TestQuickShardedMatchesSingle(t *testing.T) {
	prop := func(seed int64, kRaw, fRaw, kNNRaw, sortRaw, fracRaw, mutRaw, diskRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		universe := 15 + rng.Intn(30)
		n := 60 + rng.Intn(200)
		d := randomDataset(rng, n, universe)
		part := randomPartition(t, rng, universe, 2+int(kRaw)%8)
		r := 1 + int(kRaw)%2
		pageSize := 0
		if diskRaw%2 == 0 {
			pageSize = 256
		}
		muts := randomMutations(rng, n, universe, int(mutRaw)%40)

		// Reference: one core table over a private copy of the dataset,
		// with the same mutation script applied.
		ref := txn.NewDataset(universe)
		for _, tr := range d.All() {
			ref.Append(tr)
		}
		single, err := core.Build(ref, part, core.BuildOptions{ActivationThreshold: r, PageSize: pageSize})
		if err != nil {
			t.Log(err)
			return false
		}
		for _, m := range muts {
			if m.insert != nil {
				single, _ = single.InsertSnapshot(m.insert)
			} else {
				single, _ = single.DeleteSnapshot(m.delete)
			}
		}

		fs := allSimFuncs()
		f := fs[int(fRaw)%len(fs)]
		opt := core.QueryOptions{K: 1 + int(kNNRaw)%8}
		if sortRaw%2 == 1 {
			opt.SortBy = core.ByCoordSimilarity
		}
		if fracRaw%3 == 0 {
			opt.MaxScanFraction = 0.01 + float64(fracRaw)/255*0.5
		}
		target := randomTarget(rng, universe)
		target2 := randomTarget(rng, universe)
		ctx := context.Background()

		wantQ, err := single.Query(ctx, target, f, opt)
		if err != nil {
			t.Log(err)
			return false
		}
		wantM, err := single.MultiQuery(ctx, []txn.Transaction{target, target2}, f, opt)
		if err != nil {
			t.Log(err)
			return false
		}
		constraints := []core.RangeConstraint{{F: f, Threshold: 0.2}}
		wantR, err := single.RangeQuery(ctx, target, constraints, core.RangeOptions{Parallelism: 1})
		if err != nil {
			t.Log(err)
			return false
		}
		wantE := single.Explain(target, f)

		for _, S := range shardCounts {
			x, err := New(d, part, Options{Shards: S, ActivationThreshold: r, PageSize: pageSize})
			if err != nil {
				t.Log(err)
				return false
			}
			for _, m := range muts {
				if m.insert != nil {
					x.Insert(m.insert)
				} else {
					x.Delete(m.delete)
				}
			}
			if err := x.Validate(); err != nil {
				t.Logf("S=%d: validate: %v", S, err)
				return false
			}
			got, err := x.Query(ctx, target, f, opt)
			if err != nil {
				t.Log(err)
				return false
			}
			if !sameResult(t, wantQ, got) {
				t.Logf("S=%d Query diverged (opt=%+v)", S, opt)
				return false
			}
			gotM, err := x.MultiQuery(ctx, []txn.Transaction{target, target2}, f, opt)
			if err != nil {
				t.Log(err)
				return false
			}
			if !sameResult(t, wantM, gotM) {
				t.Logf("S=%d MultiQuery diverged", S)
				return false
			}
			gotR, err := x.RangeQuery(ctx, target, constraints, core.RangeOptions{})
			if err != nil {
				t.Log(err)
				return false
			}
			if !reflect.DeepEqual(wantR.TIDs, gotR.TIDs) ||
				wantR.Scanned != gotR.Scanned ||
				wantR.EntriesScanned != gotR.EntriesScanned ||
				wantR.EntriesPruned != gotR.EntriesPruned ||
				wantR.Interrupted != gotR.Interrupted {
				t.Logf("S=%d RangeQuery diverged:\nsingle  %+v\nsharded %+v", S, wantR, gotR)
				return false
			}
			gotE := x.Explain(target, f)
			if !reflect.DeepEqual(wantE, gotE) {
				t.Logf("S=%d Explain diverged", S)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// buildFixture is the common deterministic fixture for the focused
// tests below.
func buildFixture(t *testing.T, n, S int, opt Options) (*Index, *core.Table, *rand.Rand) {
	t.Helper()
	return buildFixtureK(t, n, 6, S, opt)
}

// buildFixtureK is buildFixture over k signatures.
func buildFixtureK(t *testing.T, n, k, S int, opt Options) (*Index, *core.Table, *rand.Rand) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	universe := 40
	d := randomDataset(rng, n, universe)
	part := randomPartition(t, rng, universe, k)
	ref := txn.NewDataset(universe)
	for _, tr := range d.All() {
		ref.Append(tr)
	}
	single, err := core.Build(ref, part, core.BuildOptions{PageSize: opt.PageSize})
	if err != nil {
		t.Fatal(err)
	}
	opt.Shards = S
	x, err := New(d, part, opt)
	if err != nil {
		t.Fatal(err)
	}
	return x, single, rng
}

// TestMutationDoesNotBlockAnyShard is the isolation proof for the
// snapshot engine: with one shard's writer mutex held (as a mutation
// holds it), a query fans out to EVERY shard — including the one being
// written — and completes against the published snapshots without ever
// blocking. The seed-era RWMutex engine could only promise the weaker
// property that the other shards kept scanning; snapshot isolation
// removes the reader-side lock entirely.
func TestMutationDoesNotBlockAnyShard(t *testing.T) {
	x, single, rng := buildFixture(t, 400, 4, Options{})
	target := randomTarget(rng, 40)
	f := simfun.Jaccard{}
	opt := core.QueryOptions{K: 5}

	want, err := single.Query(context.Background(), target, f, opt)
	if err != nil {
		t.Fatal(err)
	}

	locked := x.shards[3]
	locked.wmu.Lock() // what Insert/Delete on shard 3 holds
	defer locked.wmu.Unlock()

	// Each shard worker announces itself through the scan-start hook
	// the moment it has loaded its snapshot — a deterministic signal,
	// where polling scan counters would race the workers' progress. One
	// query is in flight, so at most Shards sends; the buffer absorbs
	// them all and the non-blocking send in the hook never stalls a
	// worker.
	started := make(chan *shard, 4)
	hook := func(s *shard) {
		select {
		case started <- s:
		default:
		}
	}
	scanStartHook.Store(&hook)
	defer scanStartHook.Store(nil)

	done := make(chan core.Result, 1)
	go func() {
		res, err := x.Query(context.Background(), target, f, opt)
		if err != nil {
			t.Error(err)
		}
		done <- res
	}()

	// ALL four shards must fan out and start scanning while shard 3's
	// writer mutex is held, and the whole query must finish.
	seen := make(map[*shard]bool)
	timeout := time.After(5 * time.Second)
	for len(seen) < 4 {
		select {
		case s := <-started:
			seen[s] = true
		case <-timeout:
			t.Fatal("workers made no progress while shard 3's writer mutex was held")
		}
	}
	select {
	case got := <-done:
		if !sameResult(t, want, got) {
			t.Fatal("overlapped query diverged from the single-table result")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("query did not complete while shard 3's writer mutex was held")
	}
	if locked.scans.Load() == 0 {
		t.Fatal("write-locked shard was never scanned — readers appear to take the writer mutex")
	}
}

// TestShardedConcurrentHammer mixes per-shard inserts and deletes with
// cross-shard batch queries and compactions under -race: no data
// races, no deadlocks, and the index validates afterwards.
func TestShardedConcurrentHammer(t *testing.T) {
	x, _, rng := buildFixture(t, 300, 3, Options{PageSize: 256})
	f := simfun.MatchHammingRatio{}
	targets := make([]txn.Transaction, 8)
	for i := range targets {
		targets[i] = randomTarget(rng, 40)
	}
	ctx := context.Background()

	done := make(chan struct{})
	errc := make(chan error, 8)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				if rng.Intn(4) == 0 {
					x.Delete(txn.TID(rng.Intn(x.Len())))
				} else if rng.Intn(8) == 0 {
					x.InsertBatch([]txn.Transaction{randomTarget(rng, 40), randomTarget(rng, 40)})
				} else {
					x.Insert(randomTarget(rng, 40))
				}
			}
		}(int64(w) + 100)
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-done:
					return
				default:
				}
				if _, err := x.BatchQuery(ctx, targets, f, core.QueryOptions{K: 3}, 4); err != nil {
					errc <- err
					return
				}
				if _, err := x.RangeQuery(ctx, targets[rng.Intn(len(targets))],
					[]core.RangeConstraint{{F: f, Threshold: 0.3}}, core.RangeOptions{}); err != nil {
					errc <- err
					return
				}
			}
		}(int64(w) + 200)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			if err := x.CompactShard(i%x.Shards(), 1); err != nil {
				errc <- err
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()

	select {
	case err := <-errc:
		close(done)
		wg.Wait()
		t.Fatal(err)
	case <-time.After(400 * time.Millisecond):
		close(done)
	}
	wg.Wait() // a worker mid-operation would race Validate
	if err := x.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestCompactShardPreservesResults: compaction remaps shard-local TIDs
// but PRESERVES global TIDs, so neighbors, values and the scanned
// transaction sequence are invariant (entry counters may shrink as
// emptied entries disappear).
func TestCompactShardPreservesResults(t *testing.T) {
	x, _, rng := buildFixture(t, 300, 3, Options{PageSize: 256})
	for i := 0; i < 80; i++ {
		x.Delete(txn.TID(rng.Intn(300)))
	}
	for i := 0; i < 40; i++ {
		x.Insert(randomTarget(rng, 40))
	}
	target := randomTarget(rng, 40)
	f := simfun.Jaccard{}
	opt := core.QueryOptions{K: 6}
	before, err := x.Query(context.Background(), target, f, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < x.Shards(); i++ {
		if err := x.CompactShard(i, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := x.Validate(); err != nil {
		t.Fatal(err)
	}
	after, err := x.Query(context.Background(), target, f, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before.Neighbors, after.Neighbors) || before.Scanned != after.Scanned {
		t.Fatalf("compaction changed results:\nbefore %+v\nafter  %+v", before, after)
	}
}

// TestRebalancePreservesResults: redistribution keeps global TIDs, so
// query answers are invariant while shard sizes even out.
func TestRebalancePreservesResults(t *testing.T) {
	x, _, rng := buildFixture(t, 300, 3, Options{})
	// Skew the shards: round-robin inserts are even, so delete a lot
	// from low TIDs (mostly shard 0) and insert fresh.
	for i := 0; i < 90; i++ {
		x.Delete(txn.TID(i))
	}
	for i := 0; i < 60; i++ {
		x.Insert(randomTarget(rng, 40))
	}
	target := randomTarget(rng, 40)
	f := simfun.Cosine{}
	opt := core.QueryOptions{K: 4}
	before, err := x.Query(context.Background(), target, f, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := x.Rebalance(0); err != nil {
		t.Fatal(err)
	}
	if err := x.Validate(); err != nil {
		t.Fatal(err)
	}
	stats := x.Stats()
	min, max := stats[0].Live, stats[0].Live
	for _, st := range stats {
		if st.Live < min {
			min = st.Live
		}
		if st.Live > max {
			max = st.Live
		}
	}
	if max-min > 1 {
		t.Fatalf("rebalance left uneven shards: %+v", stats)
	}
	after, err := x.Query(context.Background(), target, f, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before.Neighbors, after.Neighbors) || before.Scanned != after.Scanned {
		t.Fatalf("rebalance changed results:\nbefore %+v\nafter  %+v", before, after)
	}
}

// TestShardedPersistRoundTrip: WriteTo + Read reproduce an identical
// engine, including after mutations followed by a full compaction of
// the insert overflows.
func TestShardedPersistRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	universe := 40
	d := randomDataset(rng, 250, universe)
	part := randomPartition(t, rng, universe, 6)
	x, err := New(d, part, Options{Shards: 3, PageSize: 256})
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if _, err := x.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Read(bytes.NewReader(buf.Bytes()), d)
	if err != nil {
		t.Fatal(err)
	}
	if err := loaded.Validate(); err != nil {
		t.Fatal(err)
	}

	f := simfun.Dice{}
	for i := 0; i < 10; i++ {
		target := randomTarget(rng, universe)
		want, err := x.Query(context.Background(), target, f, core.QueryOptions{K: 5})
		if err != nil {
			t.Fatal(err)
		}
		got, err := loaded.Query(context.Background(), target, f, core.QueryOptions{K: 5})
		if err != nil {
			t.Fatal(err)
		}
		if !sameResult(t, want, got) {
			t.Fatalf("round-tripped index diverged on target %v", target)
		}
	}

	// Tombstones must refuse to persist.
	x.Delete(0)
	if _, err := x.WriteTo(&bytes.Buffer{}); err == nil {
		t.Fatal("persisting a tombstoned index should fail")
	}
	// After compaction the TID space has a hole: still unpersistable,
	// loudly.
	if err := x.CompactShard(0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := x.WriteTo(&bytes.Buffer{}); err == nil {
		t.Fatal("persisting a holey TID space should fail")
	}
}

// TestNearestAndEmpty covers the small-surface paths: Nearest
// semantics and the all-deleted index.
func TestNearestAndEmpty(t *testing.T) {
	x, single, rng := buildFixture(t, 120, 3, Options{})
	target := randomTarget(rng, 40)
	f := simfun.Jaccard{}
	wantID, wantVal, err := single.Nearest(context.Background(), target, f)
	if err != nil {
		t.Fatal(err)
	}
	gotID, gotVal, err := x.Nearest(context.Background(), target, f)
	if err != nil {
		t.Fatal(err)
	}
	if wantID != gotID || wantVal != gotVal {
		t.Fatalf("nearest diverged: single (%d, %v), sharded (%d, %v)", wantID, wantVal, gotID, gotVal)
	}

	for g := 0; g < x.Len(); g++ {
		x.Delete(txn.TID(g))
	}
	res, err := x.Query(context.Background(), target, f, core.QueryOptions{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Neighbors) != 0 || !res.Certified {
		t.Fatalf("empty index result: %+v", res)
	}
	if _, _, err := x.Nearest(context.Background(), target, f); err == nil {
		t.Fatal("nearest on an empty index should fail")
	}
}
