package sigtable

// The benchmark harness regenerates every table and figure of the
// paper's evaluation (§5) at laptop scale, plus the ablations DESIGN.md
// lists and micro-benchmarks of the index against its baselines.
//
//	go test -bench=. -benchmem            # quick scale
//	go run ./cmd/sigbench -full           # the paper's scale
//
// Each figure/table benchmark prints the regenerated series once (the
// same rows the paper plots) and reports its headline number as a
// custom metric.

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sigtable/internal/experiments"
	"sigtable/internal/gen"
	"sigtable/internal/mining"
	"sigtable/internal/simfun"
)

var printedOnce sync.Map

// printOnce emits a regenerated figure exactly once per benchmark name,
// no matter how many iterations the benchmark runs.
func printOnce(name, out string) {
	if _, loaded := printedOnce.LoadOrStore(name, true); !loaded {
		fmt.Fprintf(os.Stderr, "\n%s\n", out)
	}
}

func benchScale() experiments.Scale { return experiments.QuickScale() }

func paperConfig() gen.Config { return gen.Config{}.Defaults() } // T10.I6, N=1000, L=2000

// --- Figures 6, 9, 12: pruning efficiency vs database size ---

func benchPruningFigure(b *testing.B, fig int, f simfun.Func) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		pts, err := experiments.PruningVsDBSize(paperConfig(), sc, f)
		if err != nil {
			b.Fatal(err)
		}
		printOnce(b.Name(), experiments.RenderPruning(fig, f.Name(), pts))
		// Headline: pruning at the largest D and K.
		b.ReportMetric(pts[len(pts)-1].Pruning, "pruning%")
	}
}

func BenchmarkFig06PruningVsDBSizeHamming(b *testing.B) {
	benchPruningFigure(b, 6, simfun.Hamming{})
}

func BenchmarkFig09PruningVsDBSizeRatio(b *testing.B) {
	benchPruningFigure(b, 9, simfun.MatchHammingRatio{})
}

func BenchmarkFig12PruningVsDBSizeCosine(b *testing.B) {
	benchPruningFigure(b, 12, simfun.Cosine{})
}

// --- Figures 7, 10, 13: accuracy vs early-termination level ---

func benchAccuracyFigure(b *testing.B, fig int, f simfun.Func) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		pts, err := experiments.AccuracyVsTermination(paperConfig(), sc, f)
		if err != nil {
			b.Fatal(err)
		}
		printOnce(b.Name(), experiments.RenderAccuracy(fig, f.Name(), pts))
		b.ReportMetric(pts[len(pts)-1].Accuracy, "acc%@2%")
	}
}

func BenchmarkFig07AccuracyVsTerminationHamming(b *testing.B) {
	benchAccuracyFigure(b, 7, simfun.Hamming{})
}

func BenchmarkFig10AccuracyVsTerminationRatio(b *testing.B) {
	benchAccuracyFigure(b, 10, simfun.MatchHammingRatio{})
}

func BenchmarkFig13AccuracyVsTerminationCosine(b *testing.B) {
	benchAccuracyFigure(b, 13, simfun.Cosine{})
}

// --- Figures 8, 11, 14: accuracy vs average transaction size ---

func benchTxnSizeFigure(b *testing.B, fig int, f simfun.Func) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		pts, err := experiments.AccuracyVsTxnSize(paperConfig(), sc, f)
		if err != nil {
			b.Fatal(err)
		}
		printOnce(b.Name(), experiments.RenderTxnSize(fig, f.Name(), pts))
		b.ReportMetric(pts[0].Accuracy-pts[len(pts)-1].Accuracy, "accdrop%")
	}
}

func BenchmarkFig08AccuracyVsTxnSizeHamming(b *testing.B) {
	benchTxnSizeFigure(b, 8, simfun.Hamming{})
}

func BenchmarkFig11AccuracyVsTxnSizeRatio(b *testing.B) {
	benchTxnSizeFigure(b, 11, simfun.MatchHammingRatio{})
}

func BenchmarkFig14AccuracyVsTxnSizeCosine(b *testing.B) {
	benchTxnSizeFigure(b, 14, simfun.Cosine{})
}

// --- Table 1: inverted-index access fractions ---

func BenchmarkTable1InvertedIndexAccess(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table1(paperConfig(), sc)
		if err != nil {
			b.Fatal(err)
		}
		printOnce(b.Name(), experiments.RenderTable1(rows))
		b.ReportMetric(rows[len(rows)-1].PctAccessed, "accessed%@T15")
	}
}

// --- Ablations (DESIGN.md) ---

func BenchmarkAblationActivation(b *testing.B) {
	sc := benchScale()
	cfg := paperConfig()
	cfg.AvgTxnSize = 15 // dense data, where footnote 4 says r > 1 helps
	for i := 0; i < b.N; i++ {
		pts, err := experiments.AblationActivation(cfg, sc, []int{1, 2, 3}, simfun.Hamming{})
		if err != nil {
			b.Fatal(err)
		}
		out := "Ablation: activation threshold r (T15.I6, hamming)\n"
		bestAcc := pts[0].Accuracy
		for _, p := range pts {
			out += fmt.Sprintf("%8s r=%d  pruning %6.2f%%  accuracy@%0.f%% %6.2f%%\n",
				"", p.R, p.Pruning, 100*sc.Termination, p.Accuracy)
			if p.Accuracy > bestAcc {
				bestAcc = p.Accuracy
			}
		}
		printOnce(b.Name(), out)
		// Footnote 4's claim: some r > 1 beats r = 1 on dense data.
		b.ReportMetric(bestAcc-pts[0].Accuracy, "Δacc%best-r")
	}
}

func BenchmarkAblationSortCriterion(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		pts, err := experiments.AblationSortCriterion(paperConfig(), sc, simfun.MatchHammingRatio{})
		if err != nil {
			b.Fatal(err)
		}
		names := map[int]string{0: "optimistic-bound", 1: "coord-similarity"}
		out := "Ablation: entry sort criterion (T10.I6, match/hamming)\n"
		for _, p := range pts {
			out += fmt.Sprintf("%8s %-18s accuracy %6.2f%%  pruning %6.2f%%\n",
				"", names[int(p.SortBy)], p.Accuracy, p.Pruning)
		}
		printOnce(b.Name(), out)
		b.ReportMetric(pts[0].Accuracy, "acc%bound")
	}
}

func BenchmarkAblationPartition(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		pts, err := experiments.AblationPartition(paperConfig(), sc, simfun.Cosine{})
		if err != nil {
			b.Fatal(err)
		}
		out := "Ablation: item partition strategy (T10.I6, cosine)\n"
		for _, p := range pts {
			out += fmt.Sprintf("%8s %-16s pruning %6.2f%%\n", "", p.Strategy, p.Pruning)
		}
		printOnce(b.Name(), out)
		b.ReportMetric(pts[0].Pruning-pts[1].Pruning, "Δpruning%")
	}
}

func BenchmarkAblationK(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		pts, err := experiments.AblationK(paperConfig(), sc, []int{8, 11, 13, 15, 18}, simfun.Hamming{})
		if err != nil {
			b.Fatal(err)
		}
		out := "Ablation: signature cardinality K (T10.I6, hamming)\n"
		for _, p := range pts {
			out += fmt.Sprintf("%8s K=%-3d entries %-6d pruning %6.2f%%\n", "", p.K, p.Entries, p.Pruning)
		}
		printOnce(b.Name(), out)
		b.ReportMetric(pts[len(pts)-1].Pruning, "pruning%@K18")
	}
}

// --- Micro-benchmarks: per-query latency against the baselines ---

type microFixture struct {
	data    *Dataset
	idx     *Index
	inv     *InvertedIndex
	queries []Transaction
}

var microOnce sync.Once
var micro microFixture

func microSetup(tb testing.TB) *microFixture {
	microOnce.Do(func() {
		g, err := NewGenerator(GeneratorConfig{Seed: 77})
		if err != nil {
			tb.Fatal(err)
		}
		micro.data = g.Dataset(50000)
		micro.idx, err = BuildIndex(micro.data, IndexOptions{SignatureCardinality: 15})
		if err != nil {
			tb.Fatal(err)
		}
		micro.inv = BuildInvertedIndex(micro.data, InvertedIndexOptions{})
		micro.queries = g.Queries(256)
	})
	return &micro
}

func BenchmarkQuerySignatureTableNN(b *testing.B) {
	m := microSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.idx.Query(context.Background(), m.queries[i%len(m.queries)], Cosine{}, QueryOptions{K: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryMem is the memory-path NN query through the
// bit-sliced directory kernel feeding the counting-sort ladder, kept
// under its archived name so the BENCH_PR*.json series stays
// comparable.
func BenchmarkQueryMem(b *testing.B) {
	m := microSetup(b)
	b.Run("bucketed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := m.idx.Query(context.Background(), m.queries[i%len(m.queries)], Cosine{}, QueryOptions{K: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkQuerySignatureTableNNEarly2pct(b *testing.B) {
	m := microSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.idx.Query(context.Background(), m.queries[i%len(m.queries)], Cosine{}, QueryOptions{K: 1, MaxScanFraction: 0.02}); err != nil {
			b.Fatal(err)
		}
	}
}

// diskIdx caches the file-backed index BenchmarkQueryDisk queries.
var (
	diskMu  sync.Mutex
	diskIdx *Index
)

func diskSetup(b *testing.B) *Index {
	b.Helper()
	m := microSetup(b)
	diskMu.Lock()
	defer diskMu.Unlock()
	if diskIdx != nil {
		return diskIdx
	}
	dir, err := os.MkdirTemp("", "sigtable-bench-")
	if err != nil {
		b.Fatal(err)
	}
	// Coarser signatures than the in-memory micro fixture: fewer,
	// fatter entries whose lists span runs of consecutive pages, and a
	// pool holding half the file — the regime where coalesced reads
	// have something to do.
	idx, err := BuildIndex(m.data, IndexOptions{
		SignatureCardinality: 8,
		PageSize:             512,
		PageFile:             filepath.Join(dir, "pages.dat"),
		BufferPoolPages:      1024,
	})
	if err != nil {
		b.Fatal(err)
	}
	diskIdx = idx
	return idx
}

// BenchmarkQueryDisk runs the exact k-NN search against the
// file-backed index. Besides the wall clock it reports the I/O
// counters per op: pagemisses/op (pool misses the scan consumed) and
// backendreads/op (positional preads actually issued — run coalescing
// is why this is the smaller number).
func BenchmarkQueryDisk(b *testing.B) {
	m := microSetup(b)
	idx := diskSetup(b)
	store := idx.Table().Store()
	b.ReportAllocs()
	store.ResetStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := idx.Query(context.Background(), m.queries[i%len(m.queries)], Cosine{}, SearchOptions{K: 1}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := store.Stats()
	b.ReportMetric(float64(st.Misses)/float64(b.N), "pagemisses/op")
	b.ReportMetric(float64(st.BackendReads)/float64(b.N), "backendreads/op")
}

// BenchmarkQueryRangeParallel sweeps worker counts over the range scan,
// which partitions entries instead of replaying an order.
func BenchmarkQueryRangeParallel(b *testing.B) {
	m := microSetup(b)
	constraints := []RangeConstraint{
		{F: MatchSimilarity{}, Threshold: 4},
		{F: HammingSimilarity{}, Threshold: 1.0 / 11},
	}
	for _, p := range []int{1, 4, 0} {
		name := fmt.Sprintf("p%d", p)
		if p == 0 {
			name = "pmax"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := m.idx.RangeQuery(context.Background(), m.queries[i%len(m.queries)], constraints, SearchOptions{Parallelism: p}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkQuerySeqscanNN(b *testing.B) {
	m := microSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ScanNearest(m.data, m.queries[i%len(m.queries)], Cosine{})
	}
}

func BenchmarkQueryInvertedIndexNN(b *testing.B) {
	m := microSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.inv.KNearest(m.queries[i%len(m.queries)], Cosine{}, 1)
	}
}

func BenchmarkQueryRange(b *testing.B) {
	m := microSetup(b)
	constraints := []RangeConstraint{
		{F: MatchSimilarity{}, Threshold: 4},
		{F: HammingSimilarity{}, Threshold: 1.0 / 11},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.idx.RangeQuery(context.Background(), m.queries[i%len(m.queries)], constraints, SearchOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQueryMultiTarget(b *testing.B) {
	m := microSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		targets := []Transaction{
			m.queries[i%len(m.queries)],
			m.queries[(i+1)%len(m.queries)],
			m.queries[(i+2)%len(m.queries)],
		}
		if _, err := m.idx.MultiQuery(context.Background(), targets, Jaccard{}, QueryOptions{K: 5}); err != nil {
			b.Fatal(err)
		}
	}
}

// batchFixture is the disk-backed sibling of microFixture, for the
// batch benchmarks: same generator and scale, but transaction lists in
// a real page file so every PagesRead is a positional pread. No decode
// cache — attaching one would let repeat batches hide the page reads
// the independent-vs-shared comparison is about.
type batchFixture struct {
	idx     *Index
	queries []Transaction
}

var batchOnce sync.Once
var batchFix batchFixture

func batchSetup(b *testing.B) *batchFixture {
	batchOnce.Do(func() {
		m := microSetup(b)
		dir, err := os.MkdirTemp("", "sigtable-bench-")
		if err != nil {
			b.Fatal(err)
		}
		idx, err := BuildIndex(m.data, IndexOptions{
			SignatureCardinality: 15,
			PageSize:             4096,
			PageFile:             filepath.Join(dir, "pages.dat"),
		})
		if err != nil {
			b.Fatal(err)
		}
		batchFix = batchFixture{idx: idx, queries: m.queries}
	})
	return &batchFix
}

// BenchmarkBatchQuery answers the same 16-query batches two ways:
// independent (each target a full Query, the pre-existing path) and
// shared-scan (one pass over the signature table, each hot entry
// decoded once for the whole batch). The -disk variants run against the
// page-backed fixture and report pages/batch — the shared engine's
// whole point is that this number collapses while the answers stay
// byte-identical. Parallelism is pinned to 1 on both sides so the
// comparison isolates the scan strategy from worker scheduling.
func BenchmarkBatchQuery(b *testing.B) {
	m := microSetup(b)
	bf := batchSetup(b)
	const batch = 16
	cases := []struct {
		name   string
		idx    *Index
		shared bool
	}{
		{"independent", m.idx, false},
		{"shared", m.idx, true},
		{"independent-disk", bf.idx, false},
		{"shared-disk", bf.idx, true},
	}
	targets := make([]Transaction, batch)
	for _, bc := range cases {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			var pages int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range targets {
					targets[j] = m.queries[(i*batch+j)%len(m.queries)]
				}
				res, err := bc.idx.BatchQuery(context.Background(), targets, Cosine{},
					QueryOptions{K: 5}, BatchOptions{SharedScan: bc.shared, Parallelism: 1})
				if err != nil {
					b.Fatal(err)
				}
				for _, r := range res {
					pages += r.PagesRead
				}
			}
			b.StopTimer()
			if pages > 0 {
				b.ReportMetric(float64(pages)/float64(b.N), "pages/batch")
			}
		})
	}
}

// --- Sharded engine benchmarks ---

// shardedFix caches one built engine per benchmark case: the harness
// re-invokes the function with growing b.N, and rebuilding a
// 50k-transaction engine each round would swamp the measurement.
var (
	shardedMu  sync.Mutex
	shardedFix = map[string]*ShardedIndex{}
)

func shardedSetup(b testing.TB, name string, S int, disk bool) *ShardedIndex {
	b.Helper()
	m := microSetup(b)
	shardedMu.Lock()
	defer shardedMu.Unlock()
	if sx, ok := shardedFix[name]; ok {
		return sx
	}
	opt := IndexOptions{SignatureCardinality: 15, Shards: S}
	if disk {
		dir, err := os.MkdirTemp("", "sigtable-bench-")
		if err != nil {
			b.Fatal(err)
		}
		opt.PageSize = 4096
		opt.PageFile = filepath.Join(dir, "pages.dat")
	}
	sx, err := NewSharded(m.data, opt)
	if err != nil {
		b.Fatal(err)
	}
	shardedFix[name] = sx
	return sx
}

// BenchmarkShardedQuery runs the exact k-NN search against the sharded
// engine at S ∈ {1, 4, 8}, in memory and against per-shard page files.
// The answers are byte-identical to the single table at every shard
// count (the property tests prove it), so this measures only what the
// scatter-gather costs and buys: per-shard ranking and scan workers
// against the coordinator's head merge of their ranked streams, whose
// allocations scale with S, not with the entries visited
// (TestShardedQueryAllocsPinned). 1shards is the degenerate case — one
// shard behind the routing layer — and bounds the engine's fixed tax
// over a plain Index.
func BenchmarkShardedQuery(b *testing.B) {
	m := microSetup(b)
	for _, disk := range []bool{false, true} {
		for _, S := range []int{1, 4, 8} {
			name := fmt.Sprintf("%dshards", S)
			if disk {
				name += "-disk"
			}
			b.Run(name, func(b *testing.B) {
				sx := shardedSetup(b, name, S, disk)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := sx.Query(context.Background(), m.queries[i%len(m.queries)], Cosine{}, SearchOptions{K: 1}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkBuildIndex measures the full build pipeline — support
// counting, clustering, coordinate assignment, grouping, page writes —
// serial vs parallel (parallel = GOMAXPROCS workers), in memory and
// disk mode. The serial/parallel pair is the headline BENCH_PR3.json
// records.
func BenchmarkBuildIndex(b *testing.B) {
	g, err := NewGenerator(GeneratorConfig{Seed: 78})
	if err != nil {
		b.Fatal(err)
	}
	data := g.Dataset(20000)
	cases := []struct {
		name string
		opt  IndexOptions
	}{
		{"serial", IndexOptions{SignatureCardinality: 15, BuildParallelism: 1}},
		{"parallel", IndexOptions{SignatureCardinality: 15}},
		{"serial-disk", IndexOptions{SignatureCardinality: 15, BuildParallelism: 1, PageSize: 4096, BufferPoolPages: 256}},
		{"parallel-disk", IndexOptions{SignatureCardinality: 15, PageSize: 4096, BufferPoolPages: 256}},
	}
	for _, bc := range cases {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			var workers int
			for i := 0; i < b.N; i++ {
				idx, err := BuildIndex(data, bc.opt)
				if err != nil {
					b.Fatal(err)
				}
				workers = idx.BuildStats().Workers
			}
			b.ReportMetric(float64(workers), "workers")
		})
	}
}

// BenchmarkSupportCount isolates the mining phase: one pass tallying
// item and 2-itemset supports, serial vs fanned across GOMAXPROCS
// workers with per-worker count merging.
func BenchmarkSupportCount(b *testing.B) {
	g, err := NewGenerator(GeneratorConfig{Seed: 79})
	if err != nil {
		b.Fatal(err)
	}
	data := g.Dataset(50000)
	for _, bc := range []struct {
		name string
		par  int
	}{{"serial", 1}, {"parallel", 0}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				counts := mining.Count(data, mining.CountOptions{CountPairs: true, Parallelism: bc.par})
				if counts.N != data.Len() {
					b.Fatalf("counted %d of %d", counts.N, data.Len())
				}
			}
		})
	}
}

// BenchmarkPoolHammer drives concurrent disk-mode queries through the
// sharded clock buffer pool and reports the achieved hit rate and
// shard-lock contention — the numbers that justify (or refute) the
// shard count.
func BenchmarkPoolHammer(b *testing.B) {
	g, err := NewGenerator(GeneratorConfig{Seed: 80})
	if err != nil {
		b.Fatal(err)
	}
	data := g.Dataset(20000)
	idx, err := BuildIndex(data, IndexOptions{
		SignatureCardinality: 12,
		PageSize:             2048,
		BufferPoolPages:      512,
	})
	if err != nil {
		b.Fatal(err)
	}
	queries := make([]Transaction, 64)
	for i := range queries {
		queries[i] = data.Get(TID(i * 17 % data.Len()))
	}
	b.ReportAllocs()
	b.ResetTimer()
	var next int64
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := int(atomic.AddInt64(&next, 1))
			q := queries[i%len(queries)]
			if _, err := idx.Query(context.Background(), q, Cosine{}, QueryOptions{K: 5}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.StopTimer()
	pool := idx.Table().Store().Pool()
	b.ReportMetric(pool.HitRate()*100, "hit%")
	hits, misses := pool.Stats()
	if hits+misses > 0 {
		b.ReportMetric(float64(pool.Contention())/float64(hits+misses)*100, "contended%")
	}
}

// --- Mixed read/write workload under snapshot publication ---

// BenchmarkMixedWorkload drives N parallel workers over one index with
// a ~1% Insert/Delete mix and measures what the readers feel under the
// published-snapshot engine (lock-free queries, per-list invalidation,
// batched overflow flush). Reported per variant: query-ns/op, the mean
// wall time of the query ops alone (the headline ns/op mixes in the
// mutations), and in disk mode dchit%, the decode-cache hit rate over
// the measured window — the per-list protocol keeps the working set
// warm across writes.
func BenchmarkMixedWorkload(b *testing.B) {
	storages := []struct {
		suffix string
		opt    IndexOptions
	}{
		{"", IndexOptions{SignatureCardinality: 12}},
		{"-disk", IndexOptions{
			SignatureCardinality: 12,
			PageSize:             512,
			DecodeCacheBytes:     1 << 22,
		}},
	}
	for _, st := range storages {
		b.Run("snapshot"+st.suffix, func(b *testing.B) {
			benchMixedWorkload(b, st.opt)
		})
	}
}

func benchMixedWorkload(b *testing.B, opt IndexOptions) {
	g, err := NewGenerator(GeneratorConfig{Seed: 81})
	if err != nil {
		b.Fatal(err)
	}
	data := g.Dataset(20000)
	idx, err := BuildIndex(data, opt)
	if err != nil {
		b.Fatal(err)
	}
	defer idx.Close()
	queries := g.Queries(256)
	store := idx.Table().Store()

	var hits0, misses0 int64
	if store != nil && store.DecodeCache() != nil {
		hits0, misses0 = store.DecodeCache().Stats()
	}

	var queryNanos, queryCount int64
	var seedCtr int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(1000 + atomic.AddInt64(&seedCtr, 1)))
		var localNs, localN int64
		for pb.Next() {
			if rng.Intn(128) == 0 {
				if rng.Intn(2) == 0 {
					idx.Insert(queries[rng.Intn(len(queries))])
				} else {
					idx.Delete(TID(rng.Intn(20000)))
				}
				continue
			}
			target := queries[rng.Intn(len(queries))]
			t0 := time.Now()
			if _, err := idx.Query(context.Background(), target, Cosine{}, QueryOptions{K: 1, MaxScanFraction: 0.05}); err != nil {
				b.Fatal(err)
			}
			localNs += time.Since(t0).Nanoseconds()
			localN++
		}
		atomic.AddInt64(&queryNanos, localNs)
		atomic.AddInt64(&queryCount, localN)
	})
	b.StopTimer()
	if queryCount > 0 {
		b.ReportMetric(float64(queryNanos)/float64(queryCount), "query-ns/op")
	}
	if store != nil && store.DecodeCache() != nil {
		h, m := store.DecodeCache().Stats()
		if dh, dm := h-hits0, m-misses0; dh+dm > 0 {
			b.ReportMetric(float64(dh)/float64(dh+dm)*100, "dchit%")
		}
	}
}
