package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"sigtable"
	"sigtable/internal/cluster"
	"sigtable/internal/core"
	"sigtable/internal/invindex"
	"sigtable/internal/mining"
	"sigtable/internal/pager"
	"sigtable/internal/seqscan"
	"sigtable/internal/server"
	"sigtable/internal/signature"
	"sigtable/internal/topk"
	"sigtable/internal/txn"
)

// span is one timed call into a layer, recorded from outside it.
// Counters hold per-call quantities read at the same boundary; a
// counter named *_ns is time spent in calls the span made that are too
// many to record one by one (the ranked stream's Next, ScanCoord), and
// counts as child time.
type span struct {
	Name     string             `json:"name"`
	Req      int                `json:"req"`
	Parent   int                `json:"parent"`
	Start    int64              `json:"startNs"`
	End      int64              `json:"endNs"`
	Counters map[string]float64 `json:"counters,omitempty"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (tr *tracer) begin(name string, req, parent int) int {
	tr.spans = append(tr.spans, span{Name: name, Req: req, Parent: parent, Start: int64(time.Since(tr.t0))})
	return len(tr.spans) - 1
}

func (tr *tracer) end(id int) time.Duration {
	tr.spans[id].End = int64(time.Since(tr.t0))
	return tr.dur(id)
}

func (tr *tracer) set(id int, name string, v float64) {
	if tr.spans[id].Counters == nil {
		tr.spans[id].Counters = map[string]float64{}
	}
	tr.spans[id].Counters[name] = v
}

func (tr *tracer) dur(id int) time.Duration {
	return time.Duration(tr.spans[id].End - tr.spans[id].Start)
}

// selfTimes returns each span's duration minus the time its children
// cover: child spans plus its *_ns counters.
func (tr *tracer) selfTimes() []time.Duration {
	self := make([]time.Duration, len(tr.spans))
	for i := range tr.spans {
		self[i] += tr.dur(i)
		for name, v := range tr.spans[i].Counters {
			if len(name) > 3 && name[len(name)-3:] == "_ns" {
				self[i] -= time.Duration(v)
			}
		}
		if p := tr.spans[i].Parent; p >= 0 {
			self[p] -= tr.dur(i)
		}
	}
	return self
}

// durations returns the durations of every span with the name.
func (tr *tracer) durations(name string) []time.Duration {
	var out []time.Duration
	for i, s := range tr.spans {
		if s.Name == name {
			out = append(out, tr.dur(i))
		}
	}
	return out
}

func (tr *tracer) write(path string) error {
	b, err := json.Marshal(tr.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// replayResult is what an outside-in replay of one search produced.
type replayResult struct {
	neighbors []topk.Candidate
	scanned   int
	visited   int
	pruned    int
	rank      time.Duration // NewTargetPlan + NewRankedStream + Next and Rank over the visited prefix
	scan      time.Duration // ScanCoord over the visited entries
}

// replaySearch runs the serial branch-and-bound loop of a k-NN query
// through the core package's exported ranking and scoring primitives,
// timing the ranking and the scanning separately. On the same table
// snapshot it must reproduce the engine's Scanned and neighbors.
func replaySearch(t *core.Table, target txn.Transaction, k int, frac float64) replayResult {
	var rr replayResult
	budget := budgetOf(t, frac)
	start := time.Now()
	plan := core.NewTargetPlan(t.Partition(), t.ActivationThreshold(), []txn.Transaction{target}, cosine)
	rs := t.NewRankedStream(plan, core.ByOptimisticBound)
	rr.rank = time.Since(start)
	defer rs.Close()
	sc := core.NewShardScorer(t, []txn.Transaction{target}, cosine)
	defer sc.Release()
	best := topk.New(k)
	var reads atomic.Int64
	for {
		t0 := time.Now()
		c, ok := rs.Next()
		var opt float64
		if ok {
			opt, _, _ = plan.Rank(c, core.ByOptimisticBound)
		}
		rr.rank += time.Since(t0)
		if !ok {
			break
		}
		if threshold, full := best.Threshold(); full && opt <= threshold {
			rr.pruned += 1 + rs.Len()
			break
		}
		rr.visited++
		stop := false
		t1 := time.Now()
		sc.ScanCoord(c, &reads, func(id txn.TID, v float64) bool {
			best.Offer(id, v)
			rr.scanned++
			if rr.scanned >= budget {
				stop = true
				return false
			}
			return true
		})
		rr.scan += time.Since(t1)
		if stop {
			break
		}
	}
	rr.neighbors = best.Results()
	return rr
}

// pagerCounters are the page-store counters the traced run reads
// around each engine call.
type pagerCounters struct {
	reads, backend, bytes           int64
	poolHits, poolMisses            int64
	pfIssued, pfHits, pfWasted      int64
	decodeHits, decodeMisses        int64
	decodeInvalidations, pagesWrote int64
}

func readPager(t *core.Table) pagerCounters {
	var c pagerCounters
	st := t.Store()
	if st == nil {
		return c
	}
	s := st.Stats()
	c.reads, c.backend, c.bytes, c.pagesWrote = s.Reads, s.BackendReads, s.BytesRead, s.Writes
	if p := st.Pool(); p != nil {
		c.poolHits, c.poolMisses = p.Stats()
	}
	if pf := st.Prefetcher(); pf != nil {
		ps := pf.Stats()
		c.pfIssued, c.pfHits, c.pfWasted = ps.Issued, ps.Hits, ps.Wasted
	}
	if dc := st.DecodeCache(); dc != nil {
		c.decodeHits, c.decodeMisses = dc.Stats()
		l, _ := dc.Invalidations()
		c.decodeInvalidations = int64(l)
	}
	return c
}

func (a pagerCounters) sub(b pagerCounters) pagerCounters {
	return pagerCounters{
		a.reads - b.reads, a.backend - b.backend, a.bytes - b.bytes,
		a.poolHits - b.poolHits, a.poolMisses - b.poolMisses,
		a.pfIssued - b.pfIssued, a.pfHits - b.pfHits, a.pfWasted - b.pfWasted,
		a.decodeHits - b.decodeHits, a.decodeMisses - b.decodeMisses,
		a.decodeInvalidations - b.decodeInvalidations, a.pagesWrote - b.pagesWrote,
	}
}

func (a *pagerCounters) add(b pagerCounters) {
	*a = pagerCounters{
		a.reads + b.reads, a.backend + b.backend, a.bytes + b.bytes,
		a.poolHits + b.poolHits, a.poolMisses + b.poolMisses,
		a.pfIssued + b.pfIssued, a.pfHits + b.pfHits, a.pfWasted + b.pfWasted,
		a.decodeHits + b.decodeHits, a.decodeMisses + b.decodeMisses,
		a.decodeInvalidations + b.decodeInvalidations, a.pagesWrote + b.pagesWrote,
	}
}

// traceRun is the traced, in-process replay of a workload's requests.
type traceRun struct {
	w       *workload
	fx      *fixture
	dir     string
	tr      *tracer
	metrics map[string]float64 // per-layer metrics, name → value
	extra   map[string]float64 // metrics only some workloads exercise
}

// loadEngine reads the dataset file and builds an engine over it with
// the workload's storage. Each engine reads its own copy: inserts
// append to the engine's dataset.
func (tx *traceRun) loadEngine(dataPath, pageFile string, st storage) (sigtable.Engine, *txn.Dataset, error) {
	d, err := readDataset(dataPath)
	if err != nil {
		return nil, nil, err
	}
	opt := st.options(pageFile)
	if st.shards > 1 {
		e, err := sigtable.NewSharded(d, opt)
		return e, d, err
	}
	e, err := sigtable.BuildIndex(d, opt)
	return e, d, err
}

func readDataset(path string) (*txn.Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return txn.ReadDataset(f)
}

// buildPhases times the build's layers one call each, the way
// sigtable.BuildIndex chains them, on a single table with the
// workload's storage.
func (tx *traceRun) buildPhases(dataPath string) error {
	root := tx.tr.begin("build", -1, -1)
	defer tx.tr.end(root)
	sp := tx.tr.begin("sigtable.read_dataset", -1, root)
	d, err := readDataset(dataPath)
	tx.metrics["sigtable.read_dataset_s"] = tx.tr.end(sp).Seconds()
	if err != nil {
		return err
	}
	sp = tx.tr.begin("mining.count", -1, root)
	sample := 50000
	if d.Len() < sample {
		sample = d.Len()
	}
	counts := mining.Count(d, mining.CountOptions{MaxSample: sample, CountPairs: true})
	pairs := counts.FrequentPairs(0.0005)
	tx.metrics["mining.count_s"] = tx.tr.end(sp).Seconds()
	sp = tx.tr.begin("cluster.partition", -1, root)
	sets, err := cluster.Exact(counts.ItemSupports(), pairs, 15)
	tx.metrics["cluster.partition_s"] = tx.tr.end(sp).Seconds()
	if err != nil {
		return err
	}
	part, err := signature.NewPartition(d.UniverseSize(), sets)
	if err != nil {
		return err
	}
	st := tx.w.storage
	pageFile := ""
	if st.pageSize > 0 {
		pageFile = tx.dir + "/build.pages"
	}
	sp = tx.tr.begin("core.build", -1, root)
	t, err := core.Build(d, part, core.BuildOptions{
		ActivationThreshold: 1,
		PageSize:            st.pageSize,
		PageFile:            pageFile,
		PageFormat:          pager.FormatV2,
		BufferPoolPages:     st.poolPages,
		DecodeCacheBytes:    st.decodeBytes,
	})
	tx.metrics["core.build_s"] = tx.tr.end(sp).Seconds()
	if err != nil {
		return err
	}
	return t.Close()
}

// run replays reqs serially. Per query it times the in-process HTTP
// handler, the direct engine call, a single-table twin (sharded
// workloads), the outside-in rank and scan replay and, on disk, the
// same query on a memory-table twin; it fails if the replay does not
// reproduce the engine's Scanned, entry counts and neighbors exactly.
// Derived self times (handler minus engine, single-table query minus
// rank and scan) subtract separate calls, so single samples can dip
// below zero.
func (tx *traceRun) run(dataPath string, reqs []*request) error {
	if err := tx.buildPhases(dataPath); err != nil {
		return fmt.Errorf("build phases: %w", err)
	}
	st := tx.w.storage
	pageFile := func(name string) string {
		if st.pageSize == 0 {
			return ""
		}
		return tx.dir + "/" + name
	}
	served, servedData, err := tx.loadEngine(dataPath, pageFile("served.pages"), st)
	if err != nil {
		return err
	}
	defer served.Close()
	// single is the table the replay and the pager counters read: the
	// served engine itself, or a single-table twin of a sharded one.
	single, _ := served.(*sigtable.Index)
	if single == nil {
		twin, _, err := tx.loadEngine(dataPath, pageFile("single.pages"), storage{pageSize: st.pageSize, poolPages: st.poolPages, decodeBytes: st.decodeBytes})
		if err != nil {
			return err
		}
		defer twin.Close()
		single = twin.(*sigtable.Index)
	}
	// mem is a memory-table twin: the disk table's query time minus the
	// twin's for the same request is the time storage costs.
	var mem *sigtable.Index
	if st.pageSize > 0 {
		e, _, err := tx.loadEngine(dataPath, "", storage{})
		if err != nil {
			return err
		}
		defer e.Close()
		mem = e.(*sigtable.Index)
	}
	inv := invindex.Build(tx.fx.data, invindex.Options{})

	h := server.New(served, servedData, server.Options{QueryTimeout: 5 * time.Second, QueryParallelism: 1}).Handler()
	ck := &checker{fx: tx.fx, m: newMirror(tx.fx.data), readOnly: tx.w.readOnly}
	ctx := context.Background()

	var (
		pc                       pagerCounters
		queries, allocs, heap    float64
		visited, pruned, scanned float64
		rankTotal, queryTotal    time.Duration
		scanTotal                time.Duration
		serverSelf, batchSelf    []time.Duration
		engineSelf, ioTimes      []time.Duration
		shardOverhead, respBytes []float64
		rankTimes, scanTimes     []time.Duration
		baseQueries              int
		accessed                 float64
		ms0, ms1                 runtime.MemStats
	)
	for i, r := range reqs {
		root := tx.tr.begin("request", i, -1)
		switch r.kind {
		case opBatch:
			httpDur, err := tx.serve(h, ck, r, i, root, &respBytes)
			if err != nil {
				return err
			}
			targets := make([]sigtable.Transaction, len(r.targets))
			for j, t := range r.targets {
				targets[j] = tx.fx.pool[t]
			}
			sp := tx.tr.begin("engine.batch", i, root)
			_, err = served.BatchQuery(ctx, targets, cosine, sigtable.QueryOptions{K: r.k, MaxScanFraction: r.frac},
				sigtable.BatchOptions{SharedScan: true})
			batchSelf = append(batchSelf, httpDur-tx.tr.end(sp))
			if err != nil {
				return err
			}
		case opQuery:
			httpDur, err := tx.serve(h, ck, r, i, root, &respBytes)
			if err != nil {
				return err
			}
			target := tx.fx.pool[r.targets[0]]
			opt := sigtable.QueryOptions{K: r.k, MaxScanFraction: r.frac, Parallelism: 1}
			p0 := readPager(single.Table())
			runtime.ReadMemStats(&ms0)
			sp := tx.tr.begin("engine.query", i, root)
			res, err := served.Query(ctx, target, cosine, opt)
			engineDur := tx.tr.end(sp)
			runtime.ReadMemStats(&ms1)
			if err != nil {
				return err
			}
			if single == served {
				pc.add(readPager(single.Table()).sub(p0))
			}
			queries++
			allocs += float64(ms1.Mallocs - ms0.Mallocs)
			heap += float64(ms1.TotalAlloc - ms0.TotalAlloc)
			tx.tr.set(sp, "allocs", float64(ms1.Mallocs-ms0.Mallocs))
			tx.tr.set(sp, "scanned", float64(res.Scanned))
			tx.tr.set(sp, "pagesRead", float64(res.PagesRead))
			serverSelf = append(serverSelf, httpDur-engineDur)
			queryTotal += engineDur
			visited += float64(res.EntriesScanned)
			pruned += float64(res.EntriesPruned)
			scanned += float64(res.Scanned)
			ref, singleDur := res, engineDur
			if single != served {
				p0 := readPager(single.Table())
				sp = tx.tr.begin("shard.single_query", i, root)
				ref, err = single.Query(ctx, target, cosine, opt)
				singleDur = tx.tr.end(sp)
				shardOverhead = append(shardOverhead, ms(engineDur-singleDur))
				if err != nil {
					return err
				}
				pc.add(readPager(single.Table()).sub(p0))
			}
			sp = tx.tr.begin("core.replay", i, root)
			rr := replaySearch(single.Table(), target, r.k, r.frac)
			tx.tr.end(sp)
			tx.tr.set(sp, "rank_ns", float64(rr.rank))
			tx.tr.set(sp, "scan_ns", float64(rr.scan))
			tx.tr.set(sp, "scanned", float64(rr.scanned))
			if err := sameAnswer(rr, ref); err != nil {
				return fmt.Errorf("traced query %d: replay differs from the engine: %v", i, err)
			}
			rankTimes = append(rankTimes, rr.rank)
			scanTimes = append(scanTimes, rr.scan)
			rankTotal += rr.rank
			scanTotal += rr.scan
			engineSelf = append(engineSelf, singleDur-rr.rank-rr.scan)
			if mem != nil {
				sp = tx.tr.begin("engine.memory_query", i, root)
				_, err := mem.Query(ctx, target, cosine, opt)
				ioTimes = append(ioTimes, singleDur-tx.tr.end(sp))
				if err != nil {
					return err
				}
			}
			if baseQueries < tx.fx.sc.baseN {
				baseQueries++
				sp = tx.tr.begin("seqscan.query", i, root)
				seqscan.KNearest(tx.fx.data, target, cosine, r.k)
				tx.tr.end(sp)
				sp = tx.tr.begin("invindex.query", i, root)
				inv.KNearest(target, cosine, r.k)
				tx.tr.end(sp)
				accessed += inv.Access(target).Fraction
			}
		case opInsert:
			sp := tx.tr.begin("engine.insert", i, root)
			var tids []txn.TID
			if r.multi {
				tids = served.InsertBatch(r.txns)
			} else {
				tids = []txn.TID{served.Insert(r.txns[0])}
			}
			tx.tr.end(sp)
			if err := ck.m.insert(tids, r.txns); err != nil {
				return err
			}
			for _, e := range []*sigtable.Index{single, mem} {
				if e != nil && e != served {
					e.InsertBatch(r.txns)
				}
			}
		case opDelete:
			sp := tx.tr.begin("engine.delete", i, root)
			ok := served.Delete(r.tid)
			tx.tr.end(sp)
			if !ok {
				return fmt.Errorf("traced delete %d: TID %d not live", i, r.tid)
			}
			ck.m.remove(r.tid)
			for _, e := range []*sigtable.Index{single, mem} {
				if e != nil && e != served {
					e.Delete(r.tid)
				}
			}
		}
		tx.tr.end(root)
	}
	after := readPager(single.Table())

	m := tx.metrics
	m["server.self_ms_p50"] = percentile(serverSelf, 0.5)
	m["server.resp_bytes_p50"] = median(respBytes)
	m["engine.query_ms_p50"] = percentile(tx.tr.durations("engine.query"), 0.5)
	m["engine.query_ms_p99"] = percentile(tx.tr.durations("engine.query"), 0.99)
	m["engine.allocs_per_query"] = allocs / queries
	m["engine.bytes_per_query"] = heap / queries
	m["core.rank_us_p50"] = percentile(rankTimes, 0.5) * 1e3
	m["core.entries_visited_per_query"] = visited / queries
	m["core.entries_pruned_per_query"] = pruned / queries
	m["core.rank_share_pct"] = 100 * float64(rankTotal) / float64(queryTotal)
	m["core.scan_ms_p50"] = percentile(scanTimes, 0.5)
	m["core.txns_scored_per_query"] = scanned / queries
	m["core.scan_ns_per_txn"] = float64(scanTotal) / scanned
	m["core.engine_self_ms_p50"] = percentile(engineSelf, 0.5)
	ov := served.OverflowStats()
	m["core.overflow_flushes"] = float64(ov.Flushes)
	m["core.snapshot_versions"] = float64(served.SnapshotVersion())
	m["pager.reads_per_query"] = float64(pc.reads) / queries
	m["pager.pool_hit_pct"] = pct(pc.poolHits, pc.poolHits+pc.poolMisses)
	m["pager.backend_reads_per_query"] = float64(pc.backend) / queries
	m["pager.bytes_read_per_query"] = float64(pc.bytes) / queries
	// Prefetched pages are consumed after the call that issued them, so
	// these two are totals over the run rather than per-call deltas.
	m["pager.prefetch_hit_pct"] = pct(after.pfHits, after.pfIssued)
	m["pager.prefetch_wasted"] = float64(after.pfWasted)
	m["pager.decode_hit_pct"] = pct(pc.decodeHits, pc.decodeHits+pc.decodeMisses)
	m["pager.decode_list_invalidations"] = float64(after.decodeInvalidations)
	m["pager.pages_written"] = float64(after.pagesWrote)
	m["seqscan.query_ms_p50"] = percentile(tx.tr.durations("seqscan.query"), 0.5)
	m["invindex.query_ms_p50"] = percentile(tx.tr.durations("invindex.query"), 0.5)
	m["invindex.accessed_pct"] = 100 * accessed / float64(baseQueries)

	x := tx.extra
	x["server.batch_self_ms_p50"] = percentile(batchSelf, 0.5)
	x["engine.batch_ms_p50"] = percentile(tx.tr.durations("engine.batch"), 0.5)
	x["engine.insert_us_p50"] = percentile(tx.tr.durations("engine.insert"), 0.5) * 1e3
	x["engine.delete_us_p50"] = percentile(tx.tr.durations("engine.delete"), 0.5) * 1e3
	x["pager.io_ms_p50"] = percentile(ioTimes, 0.5)
	x["shard.overhead_ms_p50"] = median(shardOverhead)
	x["core.flush_ms_total"] = ov.FlushSeconds * 1e3
	if sx, ok := served.(*sigtable.ShardedIndex); ok {
		var wait int64
		for _, s := range sx.ShardStats() {
			wait += s.LockWaitNanos
		}
		x["shard.lock_wait_ms"] = float64(wait) / 1e6
	}
	return tx.overhead(h, reqs)
}

// overhead measures what recording a span costs the call it wraps: each
// of up to 64 query requests runs through the handler bare and inside a
// span, alternating which goes first. trace.overhead_pct is the median
// over requests of the traced time over the bare time, minus one.
func (tx *traceRun) overhead(h http.Handler, reqs []*request) error {
	probe := newTracer()
	var ratios []float64
	for i, r := range reqs {
		if r.kind != opQuery || len(ratios) == 64 {
			continue
		}
		call := func() {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, r.path(), bytes.NewReader(r.body)))
		}
		var bare, traced time.Duration
		for pass := 0; pass < 2; pass++ {
			t0 := time.Now()
			if (pass+len(ratios))%2 == 0 {
				call()
				bare = time.Since(t0)
				continue
			}
			sp := probe.begin("server.http", i, -1)
			call()
			probe.end(sp)
			traced = time.Since(t0)
		}
		ratios = append(ratios, float64(traced)/float64(bare))
	}
	if len(ratios) == 0 {
		return fmt.Errorf("no query requests to measure the tracing overhead on")
	}
	tx.metrics["trace.overhead_pct"] = 100 * (median(ratios) - 1)
	return nil
}

// serve runs one request through the in-process handler inside a
// server.http span and holds its answer to the oracle.
func (tx *traceRun) serve(h http.Handler, ck *checker, r *request, i, root int, respBytes *[]float64) (time.Duration, error) {
	sp := tx.tr.begin("server.http", i, root)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, r.path(), bytes.NewReader(r.body)))
	d := tx.tr.end(sp)
	if rec.Code != http.StatusOK {
		return d, fmt.Errorf("traced %s %d: status %d: %s", r.kind, i, rec.Code, rec.Body.String())
	}
	var o outcome
	ck.check(r, rec.Body.Bytes(), &o)
	if o.wrong != nil || o.failed != nil {
		return d, fmt.Errorf("traced %s %d: %v%v", r.kind, i, o.wrong, o.failed)
	}
	*respBytes = append(*respBytes, float64(rec.Body.Len()))
	return d, nil
}

// sameAnswer reports how a replay differs from the engine's result.
func sameAnswer(rr replayResult, res sigtable.Result) error {
	if rr.scanned != res.Scanned || rr.visited != res.EntriesScanned || rr.pruned != res.EntriesPruned {
		return fmt.Errorf("scanned %d, visited %d, pruned %d; engine %d, %d, %d",
			rr.scanned, rr.visited, rr.pruned, res.Scanned, res.EntriesScanned, res.EntriesPruned)
	}
	if len(rr.neighbors) != len(res.Neighbors) {
		return fmt.Errorf("%d neighbors, engine %d", len(rr.neighbors), len(res.Neighbors))
	}
	for i, c := range rr.neighbors {
		if c != res.Neighbors[i] {
			return fmt.Errorf("rank %d is %v, engine %v", i, c, res.Neighbors[i])
		}
	}
	return nil
}

func budgetOf(t *core.Table, frac float64) int {
	if frac == 0 {
		return t.Live()
	}
	return int(math.Max(1, math.Ceil(frac*float64(t.Live()))))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func pct(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
