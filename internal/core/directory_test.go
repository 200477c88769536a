package core

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"sigtable/internal/cluster"
	"sigtable/internal/gen"
	"sigtable/internal/mining"
	"sigtable/internal/signature"
	"sigtable/internal/simfun"
	"sigtable/internal/topk"
	"sigtable/internal/txn"
)

// checkDirectory verifies the directory invariants against the table's
// entry set: one slot per entry, per-slot popcounts, and per-signature
// bitmaps whose set bits are exactly the slots whose coordinate
// activates that signature — the same facts a from-scratch rebuild
// over t.entries would encode (slot numbering aside, which is
// intentionally append-order rather than coordinate-order).
func checkDirectory(t *testing.T, tab *Table) {
	t.Helper()
	d := tab.dir
	if d == nil {
		t.Fatalf("table has no directory")
	}
	if d.slots != len(tab.entries) {
		t.Fatalf("directory has %d slots for %d entries", d.slots, len(tab.entries))
	}
	seen := make(map[signature.Coord]bool, d.slots)
	for s := 0; s < d.slots; s++ {
		e := tab.entries[s]
		if seen[e.Coord] {
			t.Fatalf("entry %#x occupies two slots", e.Coord)
		}
		seen[e.Coord] = true
		if want := uint8(bits.OnesCount64(uint64(e.Coord))); d.pop[s] != want {
			t.Fatalf("slot %d pop = %d, want %d", s, d.pop[s], want)
		}
	}
	for _, e := range tab.entries {
		if !seen[e.Coord] {
			t.Fatalf("entry %#x has no slot", e.Coord)
		}
	}
	for j := 0; j < d.k; j++ {
		row := d.bits[j*d.stride : (j+1)*d.stride]
		for s := 0; s < d.slots; s++ {
			got := row[s>>6]>>(uint(s)&63)&1 == 1
			want := uint64(tab.entries[s].Coord)>>uint(j)&1 == 1
			if got != want {
				t.Fatalf("signature %d slot %d: bit %v, coord %#x wants %v", j, s, got, tab.entries[s].Coord, want)
			}
		}
		// No stray bits beyond the slot count: the kernel trusts every
		// set bit to index a live slot.
		for w := 0; w < d.stride; w++ {
			word := row[w]
			for word != 0 {
				s := w<<6 + bits.TrailingZeros64(word)
				if s >= d.slots {
					t.Fatalf("signature %d has a bit at slot %d beyond %d slots", j, s, d.slots)
				}
				word &= word - 1
			}
		}
	}
	// The from-scratch recomputation must agree column for column. Both
	// directories encode tab.entries in slot order, so the comparison is
	// index-wise.
	fresh := newDirectory(d.k, tab.entries)
	if fresh.slots != d.slots {
		t.Fatalf("fresh directory has %d slots, incremental has %d", fresh.slots, d.slots)
	}
	column := func(dir *directory, s int) uint64 {
		var c uint64
		for j := 0; j < dir.k; j++ {
			if dir.bits[j*dir.stride+s>>6]>>(uint(s)&63)&1 == 1 {
				c |= 1 << uint(j)
			}
		}
		return c
	}
	for s := 0; s < d.slots; s++ {
		if got, want := column(d, s), column(fresh, s); got != want {
			t.Fatalf("slot %d (coord %#x): incremental column %#x, fresh column %#x",
				s, tab.entries[s].Coord, got, want)
		}
	}
}

// mutateTable applies n random InsertSnapshot/DeleteSnapshot steps
// (the directory's incremental maintenance path) to the table,
// returning the newest snapshot.
func mutateTable(rng *rand.Rand, tab *Table, universe, n int) *Table {
	for i := 0; i < n; i++ {
		switch rng.Intn(4) {
		case 0, 1: // inserts twice as likely, so occupancy grows
			tab, _ = tab.InsertSnapshot(randomTarget(rng, universe))
		case 2:
			if tab.data.Len() > 0 {
				tab, _ = tab.DeleteSnapshot(txn.TID(rng.Intn(tab.data.Len())))
			}
		case 3: // batch of inserts
			for j := 0; j < 3; j++ {
				tab, _ = tab.InsertSnapshot(randomTarget(rng, universe))
			}
		}
	}
	return tab
}

// TestDirectoryIncrementalMatchesRebuild drives the table through
// random mutation sequences, checking after each phase that the
// incrementally maintained directory equals a from-scratch
// recomputation.
func TestDirectoryIncrementalMatchesRebuild(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		universe := 20 + rng.Intn(30)
		d := randomDataset(rng, 80+rng.Intn(150), universe)
		part := randomPartition(t, rng, universe, 3+rng.Intn(6))
		tab := buildTestTable(t, d, part, BuildOptions{})
		checkDirectory(t, tab)

		tab = mutateTable(rng, tab, universe, 40)
		checkDirectory(t, tab)

		rebuilt, err := tab.Rebuild()
		if err != nil {
			t.Fatal(err)
		}
		checkDirectory(t, rebuilt)

		rebuilt = mutateTable(rng, rebuilt, universe, 20)
		checkDirectory(t, rebuilt)
	}
}

// FuzzDirectory feeds arbitrary mutation scripts (one op per input
// byte) through InsertSnapshot/DeleteSnapshot/Rebuild and asserts the incremental
// directory always equals the from-scratch recomputation.
func FuzzDirectory(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 2, 3, 0, 0, 4})
	f.Add(int64(2), []byte{4, 4, 2, 2, 2, 0})
	f.Add(int64(3), []byte{})

	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		rng := rand.New(rand.NewSource(seed))
		universe := 15 + rng.Intn(25)
		d := randomDataset(rng, 50+rng.Intn(100), universe)
		part := randomPartition(t, rng, universe, 3+rng.Intn(5))
		tab := buildTestTable(t, d, part, BuildOptions{})

		for _, op := range ops {
			switch op % 5 {
			case 0, 1:
				tab, _ = tab.InsertSnapshot(randomTarget(rng, universe))
			case 2:
				if tab.data.Len() > 0 {
					tab, _ = tab.DeleteSnapshot(txn.TID(rng.Intn(tab.data.Len())))
				}
			case 3:
				for j := 0; j < 2+int(op)%3; j++ {
					tab, _ = tab.InsertSnapshot(randomTarget(rng, universe))
				}
			case 4:
				nt, err := tab.Rebuild()
				if err != nil {
					t.Fatal(err)
				}
				tab = nt
			}
		}
		checkDirectory(t, tab)
	})
}

// popAll drains a ladder, returning the exact visiting sequence.
func popAll(src *entryLadder) []rankedEntry {
	out := make([]rankedEntry, 0, src.Len())
	for src.Len() > 0 {
		out = append(out, src.Pop())
	}
	return out
}

// referenceOrder is the visiting order by definition: every entry
// ranked with the scalar TargetPlan.Rank keys and the whole set sorted
// by CompareRanked — no directory kernel, no ladder.
func referenceOrder(tab *Table, targets []txn.Transaction, f simfun.Func, by SortCriterion) []rankedEntry {
	plan := NewTargetPlan(tab.part, tab.r, targets, f)
	out := make([]rankedEntry, len(tab.entries))
	for i, e := range tab.entries {
		opt, key, tie := plan.Rank(e.Coord, by)
		out[i] = rankedEntry{e: e, idx: i, opt: opt, sort: key, tie: tie}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		return CompareRanked(a.sort, a.tie, a.e.Coord, b.sort, b.tie, b.e.Coord)
	})
	return out
}

// referenceSearch is the paper's loop (Figure 3) written out plainly
// over referenceOrder, scoring through ShardScorer: the yardstick the
// ladder-driven engines must match field for field.
func referenceSearch(tab *Table, targets []txn.Transaction, f simfun.Func, opt QueryOptions) Result {
	order := referenceOrder(tab, targets, f, opt.SortBy)
	budget := tab.Live()
	if opt.MaxScanFraction != 0 {
		budget = max(int(math.Ceil(opt.MaxScanFraction*float64(tab.Live()))), 1)
	}
	scorer := NewShardScorer(tab, targets, f)
	defer scorer.Release()
	best := topk.New(max(opt.K, 1))
	var res Result
	unresolved := math.Inf(-1)
	for i, re := range order {
		if th, full := best.Threshold(); full && re.opt <= th {
			res.EntriesPruned++
			if opt.SortBy == ByOptimisticBound {
				res.EntriesPruned += len(order) - i - 1
				break
			}
			continue
		}
		res.EntriesScanned++
		seen := 0
		scorer.ScanCoord(re.e.Coord, nil, func(id txn.TID, v float64) bool {
			best.Offer(id, v)
			res.Scanned++
			seen++
			return res.Scanned < budget
		})
		if res.Scanned >= budget {
			if seen < re.e.Count {
				unresolved = re.opt
			}
			for _, rest := range order[i+1:] {
				if rest.opt > unresolved {
					unresolved = rest.opt
				}
			}
			break
		}
	}
	res.Neighbors = best.Results()
	th, full := best.Threshold()
	res.Certified = full && (math.IsInf(unresolved, -1) || unresolved <= th)
	res.BestPossible = unresolved
	if len(res.Neighbors) > 0 && res.Neighbors[0].Value > res.BestPossible {
		res.BestPossible = res.Neighbors[0].Value
	}
	return res
}

// TestRankSourceOrderIdentity is the sharpest form of the byte-identity
// property: the bucketed ladder's pop sequence equals the reference
// full sort element for element — same entries, same float bits for
// every key — across similarity functions, sort criteria, and mutation
// histories.
func TestRankSourceOrderIdentity(t *testing.T) {
	prop := func(seed int64, fRaw, byRaw, mutRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		universe := 20 + rng.Intn(30)
		d := randomDataset(rng, 100+rng.Intn(200), universe)
		part := randomPartition(t, rng, universe, 3+rng.Intn(8))
		tab := buildTestTable(t, d, part, BuildOptions{ActivationThreshold: 1 + rng.Intn(2)})
		tab = mutateTable(rng, tab, universe, int(mutRaw)%30)

		fs := allSimFuncs()
		f := fs[int(fRaw)%len(fs)]
		by := ByOptimisticBound
		if byRaw%2 == 1 {
			by = ByCoordSimilarity
		}
		target := randomTarget(rng, universe)
		want := referenceOrder(tab, []txn.Transaction{target}, f, by)
		if ta, ok := f.(simfun.TargetAware); ok {
			f = ta.Bind(target)
		}
		overlaps := tab.part.Overlaps(target, nil)
		sc := tab.getScratch()
		defer tab.putScratch(sc)
		got := popAll(tab.rankSource(sc, f, overlaps, coordOf(tab, target), by))

		if len(want) != len(got) {
			t.Logf("length mismatch: reference %d, ladder %d", len(want), len(got))
			return false
		}
		for i := range want {
			w, l := want[i], got[i]
			if w.e != l.e ||
				math.Float64bits(w.opt) != math.Float64bits(l.opt) ||
				math.Float64bits(w.sort) != math.Float64bits(l.sort) ||
				math.Float64bits(w.tie) != math.Float64bits(l.tie) {
				t.Logf("position %d: reference {%#x opt=%x sort=%x tie=%x}, ladder {%#x opt=%x sort=%x tie=%x}",
					i, w.e.Coord, math.Float64bits(w.opt), math.Float64bits(w.sort), math.Float64bits(w.tie),
					l.e.Coord, math.Float64bits(l.opt), math.Float64bits(l.sort), math.Float64bits(l.tie))
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func coordOf(tab *Table, target txn.Transaction) (c signatureCoord) {
	return tab.part.Coord(target, tab.r)
}

// signatureCoord keeps coordOf's return type in sync with the
// signature package without another import line.
type signatureCoord = uint64

// identityFields strips a Result to the fields every engine must
// reproduce byte-identically; PagesRead, Workers and EntriesSpeculated
// legitimately reflect execution strategy.
type identityFields struct {
	Neighbors      string
	Scanned        int
	EntriesScanned int
	EntriesPruned  int
	Certified      bool
	Interrupted    bool
	BestPossible   uint64
}

func identityOf(t *testing.T, res Result) identityFields {
	t.Helper()
	neigh := ""
	for _, n := range res.Neighbors {
		neigh += string(rune(n.TID)) + "|"
	}
	return identityFields{
		Neighbors:      neigh,
		Scanned:        res.Scanned,
		EntriesScanned: res.EntriesScanned,
		EntriesPruned:  res.EntriesPruned,
		Certified:      res.Certified,
		Interrupted:    res.Interrupted,
		BestPossible:   math.Float64bits(res.BestPossible),
	}
}

// TestQueryByteIdentityAcrossRankers runs the same queries through
// every engine driven by the directory ladder (serial, batch,
// multi-target) and through referenceSearch over the reference order,
// on pages and in memory mode, after random mutation
// interleavings, with and without a scan budget, asserting the
// deterministic Result fields agree exactly.
func TestQueryByteIdentityAcrossRankers(t *testing.T) {
	formats := []BuildOptions{
		{},
		{PageSize: 128},
	}
	for seed := int64(0); seed < 6; seed++ {
		for fi, bopt := range formats {
			rng := rand.New(rand.NewSource(seed*31 + int64(fi)))
			universe := 20 + rng.Intn(30)
			d := randomDataset(rng, 150+rng.Intn(200), universe)
			part := randomPartition(t, rng, universe, 3+rng.Intn(7))
			bopt.ActivationThreshold = 1 + rng.Intn(2)
			tab := buildTestTable(t, d, part, bopt)
			tab = mutateTable(rng, tab, universe, rng.Intn(30))

			f := allSimFuncs()[rng.Intn(len(allSimFuncs()))]
			targets := []txn.Transaction{
				randomTarget(rng, universe),
				randomTarget(rng, universe),
				randomTarget(rng, universe),
			}
			for _, by := range []SortCriterion{ByOptimisticBound, ByCoordSimilarity} {
				for _, frac := range []float64{0, 0.1} {
					opt := QueryOptions{K: 1 + rng.Intn(4), SortBy: by, MaxScanFraction: frac}
					label := fmt.Sprintf("seed %d fmt %d by %v frac %v", seed, fi, by, frac)
					check := func(what string, got, want Result) {
						t.Helper()
						if a, b := identityOf(t, got), identityOf(t, want); !reflect.DeepEqual(a, b) {
							t.Fatalf("%s %s: engine %+v != reference %+v", label, what, a, b)
						}
					}
					batch, err := tab.QueryBatch(context.Background(), targets, f, opt, 1)
					if err != nil {
						t.Fatal(err)
					}
					for i, tgt := range targets {
						want := referenceSearch(tab, []txn.Transaction{tgt}, f, opt)
						res, err := tab.Query(context.Background(), tgt, f, opt)
						if err != nil {
							t.Fatal(err)
						}
						check(fmt.Sprintf("query %d", i), res, want)
						check(fmt.Sprintf("batch %d", i), batch[i], want)
					}
					multi, err := tab.MultiQuery(context.Background(), targets, f, opt)
					if err != nil {
						t.Fatal(err)
					}
					check("multi", multi, referenceSearch(tab, targets, f, opt))
				}
			}
			if err := tab.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// largeLadderTable builds a table big enough for the ladder's split
// path to run: 20k random transactions over 200 items with K=13, which
// occupies thousands of entries, so segments far above radixCutover
// reach the cursor.
func largeLadderTable(t *testing.T, seed int64) (tab *Table, rng *rand.Rand, universe int) {
	t.Helper()
	rng = rand.New(rand.NewSource(seed))
	universe = 200
	d := randomDataset(rng, 20000, universe)
	part := randomPartition(t, rng, universe, 13)
	tab = buildTestTable(t, d, part, BuildOptions{})
	if n := len(tab.entries); n < 2000 {
		t.Fatalf("fixture occupies %d entries, want >= 2000", n)
	}
	return tab, rng, universe
}

// rankTarget ranks the table for one target through the directory
// kernel, as Query does, on borrowed scratch the caller returns.
func rankTarget(tab *Table, target txn.Transaction, f simfun.Func, by SortCriterion) (*entryLadder, *queryScratch) {
	if ta, ok := f.(simfun.TargetAware); ok {
		f = ta.Bind(target)
	}
	sc := tab.getScratch()
	return tab.rankSource(sc, f, tab.part.Overlaps(target, nil), coordOf(tab, target), by), sc
}

// TestLadderSplitIdentityLargeTable checks the lazily split ladder at a
// scale where it splits: its pop sequence equals the reference full
// sort element for element, MaxRemainingOpt before every pop equals the
// largest bound left in the reference, and Query equals
// referenceSearch field for
// field, for every similarity function, both sort orders, with and
// without a 2% scan budget, before and after InsertSnapshot/
// DeleteSnapshot steps. It also asserts that segments were split
// during consumption and that some budgeted search stopped with the
// ladder's next entries still in a pending segment, so BestPossible
// was read from one.
func TestLadderSplitIdentityLargeTable(t *testing.T) {
	tab, rng, universe := largeLadderTable(t, 16)
	ctx := context.Background()
	splits, pendingStops := 0, 0
	for phase := 0; phase < 2; phase++ {
		if phase == 1 {
			tab = mutateTable(rng, tab, universe, 60)
		}
		for _, f := range allSimFuncs() {
			for _, by := range []SortCriterion{ByOptimisticBound, ByCoordSimilarity} {
				target := randomTarget(rng, universe)
				label := fmt.Sprintf("phase %d %T by %v", phase, f, by)

				want := referenceOrder(tab, []txn.Transaction{target}, f, by)
				// restMax[i] is the largest bound from position i on:
				// what MaxRemainingOpt must report after i pops.
				restMax := make([]float64, len(want)+1)
				restMax[len(want)] = math.Inf(-1)
				for i := len(want) - 1; i >= 0; i-- {
					restMax[i] = max(want[i].opt, restMax[i+1])
				}
				src, sc := rankTarget(tab, target, f, by)
				var got []rankedEntry
				for {
					if m := src.MaxRemainingOpt(); math.Float64bits(m) != math.Float64bits(restMax[len(got)]) {
						t.Fatalf("%s after %d pops: MaxRemainingOpt %v, reference %v", label, len(got), m, restMax[len(got)])
					}
					if src.Len() == 0 {
						break
					}
					got = append(got, src.Pop())
				}
				splits += src.splits
				tab.putScratch(sc)
				if len(got) != len(want) {
					t.Fatalf("%s: ladder popped %d entries, reference has %d", label, len(got), len(want))
				}
				for i := range want {
					w, l := want[i], got[i]
					if w.e != l.e || w.idx != l.idx ||
						math.Float64bits(w.opt) != math.Float64bits(l.opt) ||
						math.Float64bits(w.sort) != math.Float64bits(l.sort) ||
						math.Float64bits(w.tie) != math.Float64bits(l.tie) {
						t.Fatalf("%s position %d: reference %#x, ladder %#x", label, i, w.e.Coord, l.e.Coord)
					}
				}

				for _, frac := range []float64{0, 0.02} {
					opt := QueryOptions{K: 1 + rng.Intn(5), SortBy: by, MaxScanFraction: frac}
					res, err := tab.Query(ctx, target, f, opt)
					if err != nil {
						t.Fatal(err)
					}
					ref := referenceSearch(tab, []txn.Transaction{target}, f, opt)
					if a, b := identityOf(t, res), identityOf(t, ref); !reflect.DeepEqual(a, b) {
						t.Fatalf("%s frac %v: Query %+v != reference %+v", label, frac, a, b)
					}
					if frac == 0 || by != ByOptimisticBound || res.EntriesPruned != 0 {
						continue
					}
					// The budget stopped the search: replay its visits to
					// see which ladder region MaxRemainingOpt read.
					src, sc := rankTarget(tab, target, f, by)
					for i := 0; i < res.EntriesScanned; i++ {
						src.Pop()
					}
					if src.Len() > 0 && src.pos == src.ordered {
						pendingStops++
					}
					tab.putScratch(sc)
				}
			}
		}
	}
	if splits == 0 {
		t.Fatal("no segment was split during consumption")
	}
	if pendingStops == 0 {
		t.Fatal("no budgeted search stopped in front of a pending segment")
	}
	t.Logf("%d splits, %d budget stops in front of a pending segment", splits, pendingStops)
}

var rankBench struct {
	once     sync.Once
	table    *Table
	overlaps []int
	coord    signature.Coord
}

func rankBenchSetup(b *testing.B) {
	rankBench.once.Do(func() {
		rng := rand.New(rand.NewSource(77))
		d := randomDataset(rng, 50000, 120)
		part := randomPartition(b, rng, 120, 15)
		table, err := Build(d, part, BuildOptions{})
		if err != nil {
			b.Fatal(err)
		}
		target := randomTarget(rng, 120)
		rankBench.table = table
		rankBench.overlaps = part.Overlaps(target, nil)
		rankBench.coord = part.Coord(target, table.r)
	})
}

// microRank reproduces the root package's micro-benchmark fixture —
// a generated T10.I6 50k-transaction dataset (seed 77), a mined K=15
// partition with IndexOptions' default support settings, 256 generated
// queries — so the ranking a real query pays can be measured in
// isolation.
var microRank struct {
	once    sync.Once
	table   *Table
	queries []txn.Transaction
}

func microRankSetup(b *testing.B) {
	microRank.once.Do(func() {
		g, err := gen.New(gen.Config{Seed: 77})
		if err != nil {
			b.Fatal(err)
		}
		d := g.Dataset(50000)
		counts := mining.Count(d, mining.CountOptions{MaxSample: 50000, CountPairs: true})
		sets, err := cluster.Exact(counts.ItemSupports(), counts.FrequentPairs(0.0005), 15)
		if err != nil {
			b.Fatal(err)
		}
		part, err := signature.NewPartition(d.UniverseSize(), sets)
		if err != nil {
			b.Fatal(err)
		}
		r := RecommendActivation(d, part, 50000)
		microRank.table, err = Build(d, part, BuildOptions{ActivationThreshold: r})
		if err != nil {
			b.Fatal(err)
		}
		microRank.queries = g.Queries(256)
	})
}

// BenchmarkEntryRanking measures the directory's bit-sliced kernel
// plus the lazily split ladder.
//
// visited-prefix is the ranking a real query pays: on the micro
// fixture (BenchmarkQuerySignatureTableNN's data, K and queries) it
// ranks each query's entries and pops exactly as many as that query's
// cosine k=1 search pops before its prune break, then drops the rest.
// bitsliced, on a 50k-transaction random K=15 table, ranks every entry
// and pops a fixed 16-entry prefix.
func BenchmarkEntryRanking(b *testing.B) {
	b.Run("visited-prefix", func(b *testing.B) {
		microRankSetup(b)
		t := microRank.table
		type query struct {
			f        simfun.Func
			overlaps []int
			coord    signature.Coord
			pops     int
		}
		qs := make([]query, len(microRank.queries))
		total := 0
		for i, tgt := range microRank.queries {
			res, err := t.Query(context.Background(), tgt, simfun.Cosine{}, QueryOptions{K: 1})
			if err != nil {
				b.Fatal(err)
			}
			pops := res.EntriesScanned
			if res.EntriesPruned > 0 {
				pops++ // the entry whose prune ended the search
			}
			overlaps := t.part.Overlaps(tgt, nil)
			qs[i] = query{simfun.Cosine{}.Bind(tgt), overlaps, signature.CoordOfOverlaps(overlaps, t.r), pops}
			total += pops
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			q := qs[i%len(qs)]
			sc := t.getScratch()
			src := t.rankSource(sc, q.f, q.overlaps, q.coord, ByOptimisticBound)
			for j := 0; j < q.pops; j++ {
				src.Pop()
			}
			src.Drop()
			t.putScratch(sc)
		}
		b.ReportMetric(float64(total)/float64(len(qs)), "pops/query")
	})
	rankBenchSetup(b)
	b.Run("bitsliced", func(b *testing.B) {
		t := rankBench.table
		f := simfun.Jaccard{}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sc := t.getScratch()
			src := t.rankSource(sc, f, rankBench.overlaps, rankBench.coord, ByOptimisticBound)
			for j := 0; j < 16 && src.Len() > 0; j++ {
				src.Pop()
			}
			t.putScratch(sc)
		}
	})
}

// TestDirectoryStatsCounters pins the DirectoryStats surface: slots
// track the entry count through mutations, and the process-wide
// counters move when ranking runs.
func TestDirectoryStatsCounters(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	universe := 30
	d := randomDataset(rng, 200, universe)
	part := randomPartition(t, rng, universe, 6)
	tab := buildTestTable(t, d, part, BuildOptions{})

	st := tab.DirectoryStats()
	if st.Slots != len(tab.entries) {
		t.Fatalf("Slots = %d, want %d", st.Slots, len(tab.entries))
	}
	if st.Bytes <= 0 {
		t.Fatalf("Bytes = %d, want > 0", st.Bytes)
	}
	before := st.Ranks
	if _, err := tab.Query(context.Background(), randomTarget(rng, universe), simfun.Cosine{}, QueryOptions{}); err != nil {
		t.Fatal(err)
	}
	after := tab.DirectoryStats()
	if after.Ranks != before+1 {
		t.Fatalf("Ranks went %d -> %d after one query", before, after.Ranks)
	}
	if after.RankSeconds < 0 {
		t.Fatalf("RankSeconds = %v", after.RankSeconds)
	}

	n := len(tab.entries)
	for i := 0; i < 50; i++ {
		tab, _ = tab.InsertSnapshot(randomTarget(rng, universe))
	}
	if got := tab.DirectoryStats().Slots; got != len(tab.entries) || got < n {
		t.Fatalf("Slots = %d after inserts, entries = %d", got, len(tab.entries))
	}

	// On a large table a k=1 query ranks every entry but orders only
	// the prefix it consumes before its prune break.
	big, rng, universe := largeLadderTable(t, 9)
	st = big.DirectoryStats()
	res, err := big.Query(context.Background(), randomTarget(rng, universe), simfun.Cosine{}, QueryOptions{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	after = big.DirectoryStats()
	ranked := after.EntriesRanked - st.EntriesRanked
	ordered := after.EntriesOrdered - st.EntriesOrdered
	t.Logf("k=1 query: %d entries ranked, %d ordered, %d visited", ranked, ordered, res.EntriesScanned+1)
	if ranked != uint64(len(big.entries)) {
		t.Fatalf("EntriesRanked grew by %d for one query over %d entries", ranked, len(big.entries))
	}
	if ordered < uint64(res.EntriesScanned+1) || ordered >= ranked {
		t.Fatalf("EntriesOrdered grew by %d: want at least the %d entries popped and fewer than the %d ranked",
			ordered, res.EntriesScanned+1, ranked)
	}
}

// TestExplainDecomposition pins the M_opt/D_opt component fields: for
// every entry the decomposition must reassemble the raw bounds.
func TestExplainDecomposition(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	universe := 30
	d := randomDataset(rng, 150, universe)
	part := randomPartition(t, rng, universe, 6)
	tab := buildTestTable(t, d, part, BuildOptions{ActivationThreshold: 2})

	target := randomTarget(rng, universe)
	ex := tab.Explain(target, simfun.Hamming{})
	wantM, wantD := BoundBase(ex.Overlaps, tab.r)
	if ex.BaseMatch != wantM || ex.BaseDist != wantD {
		t.Fatalf("base (%d, %d), want (%d, %d)", ex.BaseMatch, ex.BaseDist, wantM, wantD)
	}
	for _, e := range ex.Entries {
		if got := bits.OnesCount64(uint64(e.Coord)); e.ActiveBits != got {
			t.Fatalf("coord %#x ActiveBits = %d, want %d", e.Coord, e.ActiveBits, got)
		}
		if e.MatchOpt != ex.BaseMatch+e.DeltaMatch ||
			e.DistOpt != ex.BaseDist+tab.r*e.ActiveBits+e.DeltaDist {
			t.Fatalf("coord %#x: M=%d D=%d does not decompose (base %d/%d, act %d, dM %d, dD %d)",
				e.Coord, e.MatchOpt, e.DistOpt, ex.BaseMatch, ex.BaseDist, e.ActiveBits, e.DeltaMatch, e.DeltaDist)
		}
		if e.DeltaMatch < 0 || e.DeltaDist > 0 {
			t.Fatalf("coord %#x: delta signs wrong (dM %d, dD %d)", e.Coord, e.DeltaMatch, e.DeltaDist)
		}
	}
}
