// Command benchjson converts `go test -bench` output on stdin into a
// JSON document on stdout, so benchmark runs can be archived and diffed
// mechanically instead of eyeballed.
//
//	go test -bench=Query -benchmem -count 5 -cpu 1,2 | go run ./cmd/benchjson > bench.json
//
// Benchmark lines carry every metric Go's testing package printed —
// ns/op, B/op, allocs/op and any custom b.ReportMetric units.
// Non-benchmark lines (figure renderings, PASS/ok trailers) are
// ignored. The lines of one benchmark at one GOMAXPROCS (the repeats
// -count N prints) become one record: "metrics" holds each metric's
// median, "min" and "max" its range, "n" the number of runs and
// "iterations" their total.
//
// With -delta-vs FILE, each record that also appears in the baseline
// report at FILE (a previous benchjson document, matched by name and
// GOMAXPROCS, or by name alone when the baseline ran it at a single
// GOMAXPROCS) gains a "delta_vs" object of current/baseline ratios of
// the medians per shared metric — 0.5 means halved, 2.0 means doubled
// — and a "within_noise" object flagging the metrics whose current
// [min, max] overlaps the baseline's: a ratio there is not a measured
// change. Baselines archived before aggregation (one record per run)
// are aggregated the same way on load. A missing baseline is tolerated
// with a warning on stderr: the report carries absolute numbers and no
// ratios, so the first run of a new benchmark file works unchanged. A
// baseline that exists but does not parse is still an error (silently
// ignoring a corrupt file would hide the regression signal).
// Benchmarks absent from the baseline simply carry no delta.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
)

// record is one benchmark's result: a single line as parsed, or the
// aggregate of its repeated runs.
type record struct {
	Name       string `json:"name"`
	Procs      int    `json:"procs"`
	N          int    `json:"n,omitempty"` // runs aggregated; 0 for a parsed line
	Iterations int64  `json:"iterations"`
	// Metrics maps unit -> value; the median over runs once
	// aggregated, with the range in Min and Max.
	Metrics map[string]float64 `json:"metrics"`
	Min     map[string]float64 `json:"min,omitempty"`
	Max     map[string]float64 `json:"max,omitempty"`
	// DeltaVs maps metric unit -> current/baseline ratio of medians
	// against the -delta-vs report, for the metrics both runs share.
	DeltaVs map[string]float64 `json:"delta_vs,omitempty"`
	// WithinNoise marks the shared metrics whose current and baseline
	// [min, max] ranges overlap.
	WithinNoise map[string]bool `json:"within_noise,omitempty"`
}

// key identifies one benchmark at one GOMAXPROCS.
type key struct {
	name  string
	procs int
}

// report is the whole document.
type report struct {
	Goos       string   `json:"goos,omitempty"`
	Goarch     string   `json:"goarch,omitempty"`
	Pkg        string   `json:"pkg,omitempty"`
	CPU        string   `json:"cpu,omitempty"`
	Baseline   string   `json:"baseline,omitempty"`
	Benchmarks []record `json:"benchmarks"`
}

func main() {
	deltaVs := flag.String("delta-vs", "", "baseline benchjson document to compute per-metric ratios against")
	flag.Parse()

	rep, err := parse(bufio.NewScanner(os.Stdin))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	rep.Benchmarks = aggregate(rep.Benchmarks)
	if *deltaVs != "" {
		if err := applyDelta(rep, *deltaVs); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// applyDelta annotates rep's records with current/baseline metric
// ratios from the benchjson document at path, matching records by
// benchmark name. A baseline that does not exist is skipped with a
// warning (absolute numbers only); one that exists but fails to read
// or parse is an error.
func applyDelta(rep *report, path string) error {
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		fmt.Fprintf(os.Stderr, "benchjson: baseline %s not found; emitting absolute numbers without ratios\n", path)
		return nil
	}
	if err != nil {
		return fmt.Errorf("reading baseline: %w", err)
	}
	var base report
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("parsing baseline %s: %w", path, err)
	}
	byKey := map[key]record{}
	byName := map[string][]record{}
	for _, r := range aggregate(base.Benchmarks) {
		byKey[key{r.Name, r.Procs}] = r
		byName[r.Name] = append(byName[r.Name], r)
	}
	rep.Baseline = path
	for i := range rep.Benchmarks {
		cur := &rep.Benchmarks[i]
		prev, ok := byKey[key{cur.Name, cur.Procs}]
		if !ok {
			if rs := byName[cur.Name]; len(rs) == 1 {
				prev, ok = rs[0], true
			}
		}
		if !ok {
			continue
		}
		for unit, v := range cur.Metrics {
			pv, ok := prev.Metrics[unit]
			if !ok || pv == 0 {
				continue
			}
			if cur.DeltaVs == nil {
				cur.DeltaVs = map[string]float64{}
				cur.WithinNoise = map[string]bool{}
			}
			cur.DeltaVs[unit] = v / pv
			lo, hi := cur.span(unit)
			plo, phi := prev.span(unit)
			cur.WithinNoise[unit] = lo <= phi && plo <= hi
		}
	}
	return nil
}

// span is a metric's [min, max] over the record's runs; a parsed line
// is its own range.
func (r *record) span(unit string) (lo, hi float64) {
	v := r.Metrics[unit]
	lo, hi = v, v
	if m, ok := r.Min[unit]; ok {
		lo = m
	}
	if m, ok := r.Max[unit]; ok {
		hi = m
	}
	return lo, hi
}

// aggregate folds the parsed lines of each (name, GOMAXPROCS) into one
// record, in order of first appearance: per metric the median, min and
// max over the runs. Records that are already aggregates pass through.
func aggregate(in []record) []record {
	var order []key
	groups := map[key][]record{}
	for _, r := range in {
		k := key{r.Name, r.Procs}
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], r)
	}
	out := make([]record, 0, len(order))
	for _, k := range order {
		runs := groups[k]
		if len(runs) == 1 && runs[0].N > 0 {
			out = append(out, runs[0])
			continue
		}
		agg := record{Name: k.name, Procs: k.procs, N: len(runs),
			Metrics: map[string]float64{}, Min: map[string]float64{}, Max: map[string]float64{}}
		samples := map[string][]float64{}
		for _, r := range runs {
			agg.Iterations += r.Iterations
			for unit, v := range r.Metrics {
				samples[unit] = append(samples[unit], v)
			}
		}
		for unit, vs := range samples {
			slices.Sort(vs)
			agg.Min[unit], agg.Max[unit] = vs[0], vs[len(vs)-1]
			agg.Metrics[unit] = (vs[(len(vs)-1)/2] + vs[len(vs)/2]) / 2
		}
		out = append(out, agg)
	}
	return out
}

func parse(sc *bufio.Scanner) (*report, error) {
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	rep := &report{Benchmarks: []record{}}
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			rep.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			rep.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "pkg:"):
			rep.Pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			r, ok := parseLine(line)
			if ok {
				rep.Benchmarks = append(rep.Benchmarks, r)
			}
		}
	}
	return rep, sc.Err()
}

// parseLine decodes one result line of the form
//
//	BenchmarkName-8   123   456.7 ns/op   89 B/op   1 allocs/op   2.5 custom
//
// into a record. Metric values precede their unit token.
func parseLine(line string) (record, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || len(fields)%2 != 0 {
		return record{}, false
	}
	name, procs := splitProcs(fields[0])
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return record{}, false
	}
	r := record{Name: name, Procs: procs, Iterations: iters, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return record{}, false
		}
		r.Metrics[fields[i+1]] = v
	}
	return r, true
}

// splitProcs separates the trailing -N GOMAXPROCS suffix Go appends to
// benchmark names. A sub-benchmark named ".../p8-16" splits at the last
// dash only.
func splitProcs(name string) (string, int) {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name, 1
	}
	n, err := strconv.Atoi(name[i+1:])
	if err != nil || n <= 0 {
		return name, 1
	}
	return name[:i], n
}
