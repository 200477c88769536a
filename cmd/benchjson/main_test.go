package main

import (
	"bufio"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParse(t *testing.T) {
	in := `goos: linux
goarch: amd64
pkg: sigtable
cpu: Intel(R) Xeon(R) CPU
Some figure rendering line that is not a benchmark
BenchmarkQuerySignatureTableNN-16    	     253	   4639474 ns/op	  557288 B/op	       7 allocs/op
BenchmarkQueryParallel/p8-16         	     500	   1200000 ns/op	    1024 B/op	       9 allocs/op
BenchmarkFig06PruningVsDBSizeHamming-16	       1	9000000000 ns/op	        93.95 pruning%
PASS
ok  	sigtable	12.3s
`
	rep, err := parse(bufio.NewScanner(strings.NewReader(in)))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Goos != "linux" || rep.Goarch != "amd64" || rep.Pkg != "sigtable" {
		t.Fatalf("header not parsed: %+v", rep)
	}
	if len(rep.Benchmarks) != 3 {
		t.Fatalf("expected 3 benchmarks, got %d: %+v", len(rep.Benchmarks), rep.Benchmarks)
	}
	b0 := rep.Benchmarks[0]
	if b0.Name != "BenchmarkQuerySignatureTableNN" || b0.Procs != 16 || b0.Iterations != 253 {
		t.Fatalf("bad record: %+v", b0)
	}
	if b0.Metrics["ns/op"] != 4639474 || b0.Metrics["allocs/op"] != 7 {
		t.Fatalf("bad metrics: %+v", b0.Metrics)
	}
	b1 := rep.Benchmarks[1]
	if b1.Name != "BenchmarkQueryParallel/p8" || b1.Procs != 16 {
		t.Fatalf("sub-benchmark name not split: %+v", b1)
	}
	if rep.Benchmarks[2].Metrics["pruning%"] != 93.95 {
		t.Fatalf("custom metric lost: %+v", rep.Benchmarks[2].Metrics)
	}
}

func TestSplitProcs(t *testing.T) {
	for _, tc := range []struct {
		in    string
		name  string
		procs int
	}{
		{"BenchmarkX-8", "BenchmarkX", 8},
		{"BenchmarkX", "BenchmarkX", 1},
		{"BenchmarkX/p4-16", "BenchmarkX/p4", 16},
		{"BenchmarkX/sub-name", "BenchmarkX/sub-name", 1},
	} {
		name, procs := splitProcs(tc.in)
		if name != tc.name || procs != tc.procs {
			t.Errorf("splitProcs(%q) = %q, %d; want %q, %d", tc.in, name, procs, tc.name, tc.procs)
		}
	}
}

func TestApplyDelta(t *testing.T) {
	base := `{
  "benchmarks": [
    {"name": "BenchmarkQueryX", "procs": 1, "iterations": 10,
     "metrics": {"ns/op": 200, "allocs/op": 4, "pages/batch": 0}},
    {"name": "BenchmarkOnlyInBase", "procs": 1, "iterations": 1,
     "metrics": {"ns/op": 5}}
  ]
}`
	dir := t.TempDir()
	path := filepath.Join(dir, "base.json")
	if err := os.WriteFile(path, []byte(base), 0o644); err != nil {
		t.Fatal(err)
	}
	rep := &report{Benchmarks: []record{
		{Name: "BenchmarkQueryX", Metrics: map[string]float64{"ns/op": 100, "allocs/op": 4, "B/op": 64, "pages/batch": 7}},
		{Name: "BenchmarkNew", Metrics: map[string]float64{"ns/op": 1}},
	}}
	if err := applyDelta(rep, path); err != nil {
		t.Fatal(err)
	}
	if rep.Baseline != path {
		t.Fatalf("baseline path not recorded: %+v", rep)
	}
	d := rep.Benchmarks[0].DeltaVs
	if d["ns/op"] != 0.5 || d["allocs/op"] != 1 {
		t.Fatalf("bad ratios: %+v", d)
	}
	// Metrics the baseline lacks — or holds at zero — get no ratio.
	if _, ok := d["B/op"]; ok {
		t.Fatalf("ratio for metric absent from baseline: %+v", d)
	}
	if _, ok := d["pages/batch"]; ok {
		t.Fatalf("ratio against a zero baseline: %+v", d)
	}
	if rep.Benchmarks[1].DeltaVs != nil {
		t.Fatalf("new benchmark should carry no delta: %+v", rep.Benchmarks[1])
	}
}

// A missing baseline is not an error — the first run of a fresh
// benchmark file must emit absolute numbers; a corrupt one still is.
func TestApplyDeltaMissingBaseline(t *testing.T) {
	dir := t.TempDir()
	rep := &report{Benchmarks: []record{
		{Name: "BenchmarkQueryX", Metrics: map[string]float64{"ns/op": 100}},
	}}
	if err := applyDelta(rep, filepath.Join(dir, "missing.json")); err != nil {
		t.Fatalf("missing baseline must be tolerated: %v", err)
	}
	if rep.Baseline != "" {
		t.Fatalf("no baseline should be recorded when it is absent: %+v", rep)
	}
	if rep.Benchmarks[0].DeltaVs != nil {
		t.Fatalf("no ratios without a baseline: %+v", rep.Benchmarks[0])
	}

	corrupt := filepath.Join(dir, "corrupt.json")
	if err := os.WriteFile(corrupt, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := applyDelta(rep, corrupt); err == nil {
		t.Fatal("corrupt baseline must error")
	}
}

// TestAggregate: -count N repeats of one benchmark at one GOMAXPROCS
// fold into one record with the median, range, run count and total
// iterations; a different GOMAXPROCS stays a separate record, and
// first-appearance order is kept.
func TestAggregate(t *testing.T) {
	in := `BenchmarkQ-2   10   300 ns/op   7 allocs/op
BenchmarkQ      20   500 ns/op   7 allocs/op
BenchmarkQ-2   10   100 ns/op   7 allocs/op
BenchmarkQ-2   10   200 ns/op   9 allocs/op
BenchmarkQ-2   10   900 ns/op   7 allocs/op
BenchmarkQ      20   700 ns/op   7 allocs/op
`
	rep, err := parse(bufio.NewScanner(strings.NewReader(in)))
	if err != nil {
		t.Fatal(err)
	}
	got := aggregate(rep.Benchmarks)
	if len(got) != 2 {
		t.Fatalf("want 2 records (procs 2 and 1), got %+v", got)
	}
	p2, p1 := got[0], got[1]
	if p2.Procs != 2 || p2.N != 4 || p2.Iterations != 40 {
		t.Fatalf("procs-2 record: %+v", p2)
	}
	// Even n: the mean of the two middle runs.
	if p2.Metrics["ns/op"] != 250 || p2.Min["ns/op"] != 100 || p2.Max["ns/op"] != 900 {
		t.Fatalf("procs-2 ns/op median/min/max: %v %v %v", p2.Metrics["ns/op"], p2.Min["ns/op"], p2.Max["ns/op"])
	}
	if p2.Metrics["allocs/op"] != 7 || p2.Max["allocs/op"] != 9 {
		t.Fatalf("procs-2 allocs/op: %+v", p2)
	}
	if p1.Procs != 1 || p1.N != 2 || p1.Metrics["ns/op"] != 600 {
		t.Fatalf("procs-1 record: %+v", p1)
	}
	// An aggregate passes through a second aggregation unchanged.
	if again := aggregate(got); again[0].N != 4 || again[0].Metrics["ns/op"] != 250 {
		t.Fatalf("re-aggregation changed the record: %+v", again[0])
	}
}

// TestApplyDeltaWithinNoise: ratios compare medians, matched by name
// and GOMAXPROCS; a metric is within noise exactly when the current
// and baseline [min, max] ranges overlap. The baseline here is in the
// pre-aggregation shape (one record per run), aggregated on load.
func TestApplyDeltaWithinNoise(t *testing.T) {
	base := `{"benchmarks": [
  {"name": "BenchmarkQ", "procs": 2, "iterations": 10, "metrics": {"ns/op": 1000, "allocs/op": 7}},
  {"name": "BenchmarkQ", "procs": 2, "iterations": 10, "metrics": {"ns/op": 1200, "allocs/op": 7}},
  {"name": "BenchmarkQ", "procs": 2, "iterations": 10, "metrics": {"ns/op": 1100, "allocs/op": 7}},
  {"name": "BenchmarkQ", "procs": 1, "iterations": 10, "metrics": {"ns/op": 4000, "allocs/op": 7}}
]}`
	path := filepath.Join(t.TempDir(), "base.json")
	if err := os.WriteFile(path, []byte(base), 0o644); err != nil {
		t.Fatal(err)
	}
	in := `BenchmarkQ-2   10   500 ns/op   7 allocs/op
BenchmarkQ-2   10   600 ns/op   7 allocs/op
BenchmarkQ-2   10   550 ns/op   7 allocs/op
BenchmarkQ     10   3900 ns/op   8 allocs/op
BenchmarkQ     10   4100 ns/op   8 allocs/op
`
	rep, err := parse(bufio.NewScanner(strings.NewReader(in)))
	if err != nil {
		t.Fatal(err)
	}
	rep.Benchmarks = aggregate(rep.Benchmarks)
	if err := applyDelta(rep, path); err != nil {
		t.Fatal(err)
	}
	p2, p1 := rep.Benchmarks[0], rep.Benchmarks[1]
	if p2.DeltaVs["ns/op"] != 0.5 || p2.WithinNoise["ns/op"] {
		t.Fatalf("procs 2: [500, 600] vs [1000, 1200] is a change: %+v %+v", p2.DeltaVs, p2.WithinNoise)
	}
	if p2.DeltaVs["allocs/op"] != 1 || !p2.WithinNoise["allocs/op"] {
		t.Fatalf("procs 2: equal allocs are within noise: %+v %+v", p2.DeltaVs, p2.WithinNoise)
	}
	if p1.DeltaVs["ns/op"] != 1 || !p1.WithinNoise["ns/op"] {
		t.Fatalf("procs 1: [3900, 4100] overlaps the 4000 baseline: %+v %+v", p1.DeltaVs, p1.WithinNoise)
	}
	if p1.WithinNoise["allocs/op"] {
		t.Fatalf("procs 1: 8 vs 7 allocs does not overlap: %+v", p1.WithinNoise)
	}
}
