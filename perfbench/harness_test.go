package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"sigtable"
)

// tinyScale keeps the self-test to a second or two.
var tinyScale = scale{txns: 3000, spare: 200, pool: 24, batch: 4, insertN: 4, checkN: 8, traceN: 80, baseN: 8}

func tinyStream(t *testing.T, w *workload, seed int64) (*fixture, []*request) {
	t.Helper()
	fx, err := newFixture(tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	s := newStream(fx, w.mix, seed, 0)
	reqs := s.openLoop(200, time.Second)
	for i := 0; i < 20; i++ {
		reqs = append(reqs, s.next())
	}
	return fx, reqs
}

// The same seed must give the same dataset and the same request stream;
// another seed must not.
func TestStreamDeterministic(t *testing.T) {
	for _, w := range workloads {
		fxA, a := tinyStream(t, w, 5)
		fxB, b := tinyStream(t, w, 5)
		if len(a) != len(b) || fxA.data.Len() != fxB.data.Len() {
			t.Fatalf("%s: %d vs %d requests", w.name, len(a), len(b))
		}
		for i := range a {
			if a[i].due != b[i].due || a[i].kind != b[i].kind || !bytes.Equal(a[i].body, b[i].body) {
				t.Fatalf("%s: request %d differs between runs of one seed", w.name, i)
			}
		}
		for i := 0; i < fxA.data.Len(); i++ {
			if !fxA.data.Get(sigtable.TID(i)).Equal(fxB.data.Get(sigtable.TID(i))) {
				t.Fatalf("%s: transaction %d differs between runs of one seed", w.name, i)
			}
		}
		_, c := tinyStream(t, w, 6)
		same := len(a) == len(c)
		for i := 0; same && i < len(a); i++ {
			same = bytes.Equal(a[i].body, c[i].body)
		}
		if same {
			t.Fatalf("%s: seeds 5 and 6 gave the same stream", w.name)
		}
	}
}

// The outside-in replay must reproduce the engine's Scanned and
// neighbors, in memory and on a pooled page file.
func TestReplayReproducesEngine(t *testing.T) {
	fx, err := newFixture(tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range []storage{{}, {pageSize: 512, poolPages: 8}} {
		pageFile := ""
		if st.pageSize > 0 {
			pageFile = filepath.Join(t.TempDir(), "pages")
		}
		ix, err := sigtable.BuildIndex(fx.data, st.options(pageFile))
		if err != nil {
			t.Fatal(err)
		}
		for _, target := range fx.pool {
			for _, q := range []struct {
				k    int
				frac float64
			}{{1, 0}, {10, 0}, {10, 0.02}} {
				res, err := ix.Query(context.Background(), target, cosine, sigtable.QueryOptions{K: q.k, MaxScanFraction: q.frac, Parallelism: 1})
				if err != nil {
					t.Fatal(err)
				}
				if err := sameAnswer(replaySearch(ix.Table(), target, q.k, q.frac), res); err != nil {
					t.Fatalf("page size %d, k=%d frac=%v: %v", st.pageSize, q.k, q.frac, err)
				}
			}
		}
		ix.Close()
	}
}

// A traced run of every workload must pass its own checks, give
// non-negative self times for every span, and repeat its counts
// exactly under the same seed.
func TestTracedRun(t *testing.T) {
	counts := []string{"core.entries_visited_per_query", "core.entries_pruned_per_query",
		"core.txns_scored_per_query", "core.snapshot_versions", "pager.reads_per_query"}
	for _, w := range workloads {
		var first map[string]float64
		for rep := 0; rep < 2; rep++ {
			fx, reqs := tinyStream(t, w, 3)
			if w.readOnly {
				if err := fx.computeOracle(""); err != nil {
					t.Fatal(err)
				}
			}
			dir := t.TempDir()
			dataPath := filepath.Join(dir, "data.dat")
			if err := writeDataset(fx, dataPath); err != nil {
				t.Fatal(err)
			}
			tx := &traceRun{w: w, fx: fx, dir: dir, tr: newTracer(), metrics: map[string]float64{}, extra: map[string]float64{}}
			if err := tx.run(dataPath, reqs[:tinyScale.traceN]); err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			for i, d := range tx.tr.selfTimes() {
				if d < 0 {
					t.Fatalf("%s: span %d (%s) has negative self time %v", w.name, i, tx.tr.spans[i].Name, d)
				}
			}
			if rep == 0 {
				first = tx.metrics
				checkLayerNames(t, w.name, tx.metrics)
				continue
			}
			for _, n := range counts {
				if tx.metrics[n] != first[n] {
					t.Errorf("%s: %s is %v, then %v under the same seed", w.name, n, first[n], tx.metrics[n])
				}
			}
		}
	}
}

// checkLayerNames holds a traced run's per-layer metrics to the
// per_layer list of BENCHMARK.json, names and units.
func checkLayerNames(t *testing.T, workload string, got map[string]float64) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{
		// Filled in by run from the HTTP phase, not by the traced run.
		"loadgen.send_lag_ms_p99": true, "loadgen.late_sends": true, "server.refused": true,
	}
	for n := range got {
		names[n] = true
	}
	for _, m := range bench.PerLayer {
		if !names[m.Name] {
			t.Errorf("%s: per-layer metric %s is not reported", workload, m.Name)
		}
		if units[m.Name] != m.Unit {
			t.Errorf("%s: %s has unit %q here, %q in BENCHMARK.json", workload, m.Name, units[m.Name], m.Unit)
		}
		delete(names, m.Name)
	}
	for n := range names {
		t.Errorf("%s: metric %s is reported but not listed in BENCHMARK.json", workload, n)
	}
}
