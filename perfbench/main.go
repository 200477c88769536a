// Command perfbench is the repository's benchmark. It generates a
// market-basket dataset and a seeded request stream, starts the real
// sigserver on the dataset file, and drives it over HTTP in five rounds
// of a seeded open-loop (Poisson) slice and a closed-loop slice. It
// checks every answer against an exact seqscan oracle and prints the
// end-to-end metrics. With --trace 1 it then replays the same requests
// in-process, with spans around the calls into each layer, and prints
// the per-layer metrics instead.
//
//	perfbench --server <sigserver binary> --work <scratch dir> \
//	    --workload mem-knn|disk-cold|ingest-sharded --seed N --seconds S --trace 0|1
//
// run.py builds both binaries and calls it; see BENCHMARK.json for the
// metric names. The last line of standard output is one JSON object
// with the keys correct, attempted, failed and metrics. The exit code
// is 1 on a wrong answer or a harness error.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"sigtable"
	"sigtable/internal/pager"
	"sigtable/internal/server"
)

// storage is a workload's index configuration, rendered both as
// sigserver flags and as the IndexOptions the traced run builds with.
type storage struct {
	pageSize    int
	poolPages   int
	decodeBytes int64
	shards      int
}

func (st storage) flags(pageFile string) []string {
	var f []string
	if st.shards > 1 {
		f = append(f, "-shards", strconv.Itoa(st.shards))
	}
	if st.pageSize > 0 {
		f = append(f, "-page-size", strconv.Itoa(st.pageSize), "-page-file", pageFile,
			"-pool-pages", strconv.Itoa(st.poolPages))
	}
	if st.decodeBytes > 0 {
		f = append(f, "-decode-cache-bytes", strconv.FormatInt(st.decodeBytes, 10))
	}
	return f
}

func (st storage) options(pageFile string) sigtable.IndexOptions {
	return sigtable.IndexOptions{
		SignatureCardinality: 15,
		PageSize:             st.pageSize,
		PageFile:             pageFile,
		PageFormat:           sigtable.PageFormat(pager.FormatV2),
		BufferPoolPages:      st.poolPages,
		DecodeCacheBytes:     st.decodeBytes,
		Shards:               st.shards,
	}
}

// workload is one traffic mix against one server configuration.
type workload struct {
	name     string
	rate     float64 // open-loop arrivals per second, about half the closed-loop capacity
	mix      []mixEntry
	storage  storage
	readOnly bool
}

// The three workloads share the fixture (D=200k T10.I6, K=15, cosine,
// targets from one generated pool). BENCHMARK.json records why each
// exists; in short: mem-knn isolates ranking and the fused scan with no
// pager, disk-cold serves the same stream from a page file whose pool
// holds ~8% of it, and ingest-sharded puts writes beside reads on two
// shards whose pool and decode cache hold the whole working set.
var workloads = map[string]*workload{
	"mem-knn": {
		name: "mem-knn", rate: 60, readOnly: true,
		mix: readMix,
	},
	"disk-cold": {
		name: "disk-cold", rate: 25, readOnly: true,
		mix:     readMix,
		storage: storage{pageSize: 4096, poolPages: 64},
	},
	"ingest-sharded": {
		name: "ingest-sharded", rate: 36,
		mix: []mixEntry{
			{weight: 32, kind: opQuery, k: 10, frac: 0.05},
			{weight: 3, kind: opInsert},
			{weight: 3, kind: opInsert, multi: true},
			{weight: 2, kind: opDelete},
		},
		storage: storage{pageSize: 4096, poolPages: 2048, decodeBytes: 128 << 20, shards: 2},
	},
}

var readMix = []mixEntry{
	{weight: 12, kind: opQuery, k: 1},
	{weight: 4, kind: opQuery, k: 10},
	{weight: 3, kind: opQuery, k: 10, frac: 0.02},
	{weight: 1, kind: opBatch, k: 10},
}

// setupRuns is how many times each run starts sigserver; setup_s is the
// median.
const setupRuns = 5

// openShare is the part of --seconds spent in the open loop; the rest
// measures capacity in a closed loop. The two alternate in rounds.
const openShare = 0.5

// windows is how many rounds of an open-loop slice and a closed-loop
// slice a run measures; the latency and capacity metrics are medians
// over them, so a burst of outside load in one round moves them less.
const windows = 5

// round is one open-loop slice and the closed-loop slice after it.
type round struct {
	open   []outcome
	lags   []time.Duration
	closed []outcome
	rate   float64 // closed-loop completions per second
	cpuMS  float64 // sigserver CPU time per completed request
	steal  float64 // share of the machine's CPU time the hypervisor took
}

// roundLatency returns the median over rounds of the q-quantile of each
// round's open-loop query latencies.
func roundLatency(rounds []round, q float64) float64 {
	vals := make([]float64, len(rounds))
	for i, r := range rounds {
		var ds []time.Duration
		for _, o := range r.open {
			if o.req.kind == opQuery && o.failed == nil && o.wrong == nil {
				ds = append(ds, o.latency)
			}
		}
		vals[i] = percentile(ds, q)
	}
	return median(vals)
}

// cpuTicks is the machine-wide line of /proc/stat: steal and all ticks.
type cpuTicks struct{ steal, total uint64 }

// readCPU reads /proc/stat; where it cannot, steal reads as zero.
func readCPU() cpuTicks {
	var t cpuTicks
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return t
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	for i := 1; i < len(fields) && i <= 8; i++ {
		v, _ := strconv.ParseUint(fields[i], 10, 64)
		t.total += v
		if i == 8 {
			t.steal = v
		}
	}
	return t
}

func (t cpuTicks) stealShare(before cpuTicks) float64 {
	if t.total <= before.total {
		return 0
	}
	return float64(t.steal-before.steal) / float64(t.total-before.total)
}

func main() {
	var (
		serverBin = flag.String("server", "", "sigserver binary")
		work      = flag.String("work", ".bench_build/run", "directory for datasets, page files and span dumps")
		name      = flag.String("workload", "", "mem-knn, disk-cold or ingest-sharded")
		seed      = flag.Int64("seed", 1, "seed for the dataset and the request stream")
		seconds   = flag.Float64("seconds", 30, "measured seconds, split between open-loop and closed-loop slices")
		trace     = flag.Int("trace", 0, "1 replays the requests in-process with spans and prints per-layer metrics")
	)
	flag.Parse()
	w := workloads[*name]
	if w == nil || *serverBin == "" || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: need --server and --workload mem-knn|disk-cold|ingest-sharded and --seconds > 0")
		os.Exit(2)
	}
	runtime.GOMAXPROCS(conns)
	res, err := run(w, *serverBin, *work, *seed, *seconds, *trace == 1, fullScale)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := res.print(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// info holds metrics printed as lines but not in the result object:
	// those only some workloads exercise, and the open-loop latencies,
	// whose run-to-run spread on a shared two-CPU machine is wider than
	// any bound BENCHMARK.json may set.
	info     map[string]metric
	mismatch []string
}

func (r *result) print(f *os.File) error {
	for _, m := range [2]map[string]metric{r.info, r.Metrics} {
		names := make([]string, 0, len(m))
		for n := range m {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(f, "%-34s %14.4f %s\n", n, m[n].Value, m[n].Unit)
		}
	}
	for _, s := range r.mismatch {
		fmt.Fprintln(f, "MISMATCH", s)
	}
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(f, "%s\n", b)
	return err
}

// run is one benchmark run of a workload.
func run(w *workload, serverBin, work string, seed int64, seconds float64, traced bool, sc scale) (*result, error) {
	dir, err := filepath.Abs(filepath.Join(work, fmt.Sprintf("%s-s%d-p%d", w.name, seed, os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	t0 := time.Now()
	phase := func(name string) {
		fmt.Fprintf(os.Stderr, "perfbench: %s done at %.1fs\n", name, time.Since(t0).Seconds())
	}
	defer phase("run")

	fx, err := newFixture(sc)
	if err != nil {
		return nil, err
	}
	dataPath := filepath.Join(dir, "data.dat")
	if err := writeDataset(fx, dataPath); err != nil {
		return nil, err
	}
	if w.readOnly {
		if err := fx.computeOracle(work); err != nil {
			return nil, err
		}
	}
	// The open loop's requests are fixed up front; the closed loop draws
	// from a second stream, so how many requests it gets through never
	// changes the open loop's.
	openSlice := time.Duration(seconds * openShare * float64(time.Second) / windows)
	closedSlice := time.Duration(seconds*float64(time.Second))/windows - openSlice
	openStream, closedStream := newStream(fx, w.mix, seed, 0), newStream(fx, w.mix, seed, 1)
	slices := make([][]*request, windows)
	for i := range slices {
		slices[i] = openStream.openLoop(w.rate, openSlice)
	}
	phase("fixture")

	pageFile := filepath.Join(dir, "pages.dat")
	var srv *sigserver
	var setups []float64
	for i := 0; i < setupRuns; i++ {
		if srv != nil {
			srv.stop()
		}
		srv, err = startServer(serverBin, dataPath, w.storage.flags(pageFile), filepath.Join(dir, "sigserver.log"))
		if err != nil {
			return nil, err
		}
		setups = append(setups, srv.setup.Seconds())
	}
	defer srv.stop()
	phase("setup")

	c := newClient()
	if err := warmUp(c, srv.base, fx); err != nil {
		return nil, err
	}
	rounds := drive(c, srv, slices, closedStream, closedSlice)
	phase("load")
	ck := &checker{fx: fx, m: newMirror(fx.data), readOnly: w.readOnly}
	var all []outcome
	for _, r := range rounds {
		all = append(append(all, r.open...), r.closed...)
	}
	ck.checkAll(all)
	if !w.readOnly {
		check, err := quiescedCheck(ck, c, srv.base)
		if err != nil {
			return nil, err
		}
		all = append(all, check...)
	}
	rss, err := srv.peakRSSMB()
	if err != nil {
		return nil, err
	}
	srv.stop()
	pageBytes, err := filesSize(pageFile + "*")
	if err != nil {
		return nil, err
	}
	dataBytes, err := filesSize(dataPath)
	if err != nil {
		return nil, err
	}

	res := tally(all, rounds)
	e2e := map[string]metric{
		"setup_s":               {median(setups), "s"},
		"capacity_qps":          {median(collect(rounds, func(r round) float64 { return r.rate })), "req/s"},
		"server_cpu_ms_per_req": {median(collect(rounds, func(r round) float64 { return r.cpuMS })), "ms"},
		"rss_mb":                {rss, "MB"},
	}
	res.info["space_amp"] = metric{float64(pageBytes) / float64(dataBytes), "ratio"}
	res.info["open_loop_rate"] = metric{w.rate, "req/s"}
	if !traced {
		res.Metrics = e2e
		return res, nil
	}

	// The end-to-end figures of a traced invocation stay on the printed
	// lines, next to trace.overhead_pct.
	for n, m := range e2e {
		res.info[n] = m
	}
	tx := &traceRun{w: w, fx: fx, dir: dir, tr: newTracer(), metrics: map[string]float64{}, extra: map[string]float64{}}
	var reqs []*request
	for _, sl := range slices {
		reqs = append(reqs, sl...)
	}
	if len(reqs) > sc.traceN {
		reqs = reqs[:sc.traceN]
	}
	if err := tx.run(dataPath, reqs); err != nil {
		return nil, fmt.Errorf("traced run: %w", err)
	}
	if err := tx.tr.write(filepath.Join(work, fmt.Sprintf("trace-%s-s%d.json", w.name, seed))); err != nil {
		return nil, err
	}
	var lags []time.Duration
	late := 0
	for _, r := range rounds {
		for _, l := range r.lags {
			if l > time.Millisecond {
				late++
			}
		}
		lags = append(lags, r.lags...)
	}
	tx.metrics["loadgen.send_lag_ms_p99"] = percentile(lags, 0.99)
	tx.metrics["loadgen.late_sends"] = float64(late)
	tx.metrics["server.refused"] = res.info["refused"].Value
	for _, set := range []struct {
		from map[string]float64
		to   map[string]metric
	}{{tx.metrics, res.Metrics}, {tx.extra, res.info}} {
		for n, v := range set.from {
			u, ok := units[n]
			if !ok {
				return nil, fmt.Errorf("metric %s has no unit", n)
			}
			set.to[n] = metric{v, u}
		}
	}
	return res, nil
}

// drive runs the measured rounds against the server: each an open-loop
// slice and then a closed-loop slice.
func drive(c *http.Client, srv *sigserver, slices [][]*request, closed *stream, closedSlice time.Duration) []round {
	// The client needs little CPU while replies are only collected; one
	// thread leaves the other CPU to the server.
	runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(conns)
	rounds := make([]round, len(slices))
	for i := range rounds {
		r := &rounds[i]
		cpu0, ticks0 := readCPU(), srv.cpuTicks()
		r.open, r.lags = openLoop(c, srv.base, slices[i])
		r.closed = closedLoop(c, srv.base, closed, closedSlice)
		r.rate = completedRate(r.closed, closedSlice)
		r.steal = readCPU().stealShare(cpu0)
		if n := completed(r.open) + completed(r.closed); n > 0 {
			r.cpuMS = float64(srv.cpuTicks()-ticks0) * msPerTick / float64(n)
		}
		fmt.Fprintf(os.Stderr, "perfbench: round %d: query p50 %.2f ms, %.0f req/s closed loop, %.2f ms CPU per request, %.2f%% steal\n",
			i, roundLatency(rounds[i:i+1], 0.5), r.rate, r.cpuMS, 100*r.steal)
	}
	return rounds
}

// tally counts checked outcomes into a result and fills its printed
// metrics: latencies by request type, errors, and the paper's pruning
// and early-termination accuracy.
func tally(all []outcome, rounds []round) *result {
	res := &result{Correct: true, Attempted: len(all), Metrics: map[string]metric{}, info: map[string]metric{}}
	var pruning, recall []float64
	refused := 0
	for _, o := range all {
		switch {
		case o.wrong != nil:
			res.Correct = false
			res.mismatch = append(res.mismatch, fmt.Sprintf("%s: %v", o.req.kind, o.wrong))
			res.Failed++
		case o.failed != nil:
			res.Failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s failed: %v\n", o.req.kind, o.failed)
			if o.refused {
				refused++
			}
		default:
			if o.exactQ {
				pruning = append(pruning, o.pruning)
			}
			if o.approx {
				recall = append(recall, float64(o.recall))
			}
		}
	}
	lat := map[opKind][]time.Duration{}
	for _, r := range rounds {
		for _, o := range r.open {
			if o.failed == nil && o.wrong == nil {
				lat[o.req.kind] = append(lat[o.req.kind], o.latency)
			}
		}
	}
	info := res.info
	info["query_p50_ms"] = metric{roundLatency(rounds, 0.5), "ms"}
	info["query_p90_ms"] = metric{roundLatency(rounds, 0.9), "ms"}
	info["query_p99_ms"] = metric{percentile(lat[opQuery], 0.99), "ms"}
	info["query_samples"] = metric{float64(len(lat[opQuery])), "count"}
	info["batch_p50_ms"] = metric{percentile(lat[opBatch], 0.5), "ms"}
	info["batch_p90_ms"] = metric{percentile(lat[opBatch], 0.9), "ms"}
	info["insert_p50_ms"] = metric{percentile(lat[opInsert], 0.5), "ms"}
	info["insert_p90_ms"] = metric{percentile(lat[opInsert], 0.9), "ms"}
	info["delete_p50_ms"] = metric{percentile(lat[opDelete], 0.5), "ms"}
	info["error_pct"] = metric{100 * float64(res.Failed) / float64(res.Attempted), "%"}
	info["refused"] = metric{float64(refused), "count"}
	info["pruning_pct"] = metric{mean(pruning), "%"}
	info["recall_at_2pct"] = metric{100 * mean(recall), "%"}
	info["steal_pct_max"] = metric{maxOf(collect(rounds, func(r round) float64 { return 100 * r.steal })), "%"}
	return res
}

func collect(rounds []round, f func(round) float64) []float64 {
	out := make([]float64, len(rounds))
	for i, r := range rounds {
		out[i] = f(r)
	}
	return out
}

// warmUp sends exact queries for the first pool targets before timing
// starts, so the first timed requests do not pay for cold code paths
// and connection set-up.
func warmUp(c *http.Client, base string, fx *fixture) error {
	for i := 0; i < 32 && i < len(fx.pool); i++ {
		body, err := json.Marshal(server.QueryRequest{Items: fx.pool[i], F: "cosine", K: maxK})
		if err != nil {
			return err
		}
		resp, err := c.Post(base+"/v1/query", "application/json", bytes.NewReader(body))
		if err != nil {
			return fmt.Errorf("warm-up query: %w", err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("warm-up query: %s", resp.Status)
		}
	}
	return nil
}

func writeDataset(fx *fixture, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := fx.data.WriteTo(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func filesSize(glob string) (int64, error) {
	paths, err := filepath.Glob(glob)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, p := range paths {
		st, err := os.Stat(p)
		if err != nil {
			return 0, err
		}
		n += st.Size()
	}
	return n, nil
}

func maxOf(v []float64) float64 {
	m := 0.0
	for _, x := range v {
		m = math.Max(m, x)
	}
	return m
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// units names the unit of every metric the traced run reports: the
// per-layer metrics of BENCHMARK.json, then those only some workloads
// exercise, which are printed but not part of the result object.
var units = map[string]string{
	"server.self_ms_p50": "ms", "server.resp_bytes_p50": "B", "server.refused": "count",
	"engine.query_ms_p50": "ms", "engine.query_ms_p99": "ms",
	"engine.allocs_per_query": "count", "engine.bytes_per_query": "B",
	"core.rank_us_p50": "us", "core.entries_visited_per_query": "count",
	"core.entries_pruned_per_query": "count", "core.rank_share_pct": "%",
	"core.scan_ms_p50": "ms", "core.txns_scored_per_query": "count",
	"core.scan_ns_per_txn": "ns", "core.engine_self_ms_p50": "ms",
	"core.overflow_flushes": "count", "core.snapshot_versions": "count",
	"pager.reads_per_query": "count", "pager.pool_hit_pct": "%",
	"pager.backend_reads_per_query": "count", "pager.bytes_read_per_query": "B",
	"pager.prefetch_hit_pct": "%", "pager.prefetch_wasted": "count",
	"pager.decode_hit_pct": "%", "pager.decode_list_invalidations": "count",
	"pager.pages_written":     "count",
	"sigtable.read_dataset_s": "s", "mining.count_s": "s", "cluster.partition_s": "s", "core.build_s": "s",
	"seqscan.query_ms_p50": "ms", "invindex.query_ms_p50": "ms", "invindex.accessed_pct": "%",
	"loadgen.send_lag_ms_p99": "ms", "loadgen.late_sends": "count", "trace.overhead_pct": "%",

	"server.batch_self_ms_p50": "ms", "engine.batch_ms_p50": "ms",
	"engine.insert_us_p50": "us", "engine.delete_us_p50": "us",
	"pager.io_ms_p50": "ms", "shard.overhead_ms_p50": "ms", "shard.lock_wait_ms": "ms",
	"core.flush_ms_total": "ms",
}
