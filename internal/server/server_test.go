package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"sigtable"
)

func buildIndex(t *testing.T) (*sigtable.Index, *sigtable.Dataset) {
	t.Helper()
	g, err := sigtable.NewGenerator(sigtable.GeneratorConfig{
		UniverseSize: 200, NumItemsets: 300, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	data := g.Dataset(3000)
	idx, err := sigtable.BuildIndex(data, sigtable.IndexOptions{SignatureCardinality: 10})
	if err != nil {
		t.Fatal(err)
	}
	return idx, data
}

func newTestServer(t *testing.T, opt Options) (*httptest.Server, *sigtable.Dataset) {
	t.Helper()
	idx, data := buildIndex(t)
	ts := httptest.NewServer(New(idx, data, opt).Handler())
	t.Cleanup(ts.Close)
	return ts, data
}

func post(t *testing.T, url string, body interface{}, out interface{}) int {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding response: %v", err)
		}
	}
	return resp.StatusCode
}

func TestStats(t *testing.T) {
	ts, data := newTestServer(t, Options{})
	if code := post(t, ts.URL+"/v1/query", QueryRequest{Items: data.Get(5), F: "cosine", K: 1}, nil); code != http.StatusOK {
		t.Fatalf("query status %d", code)
	}
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Transactions != 3000 || stats.K != 10 || stats.Universe != 200 {
		t.Fatalf("stats = %+v", stats)
	}
	if d := stats.Directory; d == nil || d.EntriesRanked == 0 || d.EntriesOrdered == 0 {
		t.Fatalf("directory section after a query = %+v", d)
	}
}

func TestQueryMatchesOracle(t *testing.T) {
	ts, data := newTestServer(t, Options{})
	target := data.Get(77)

	var resp QueryResponse
	code := post(t, ts.URL+"/v1/query", QueryRequest{
		Items: target, F: "jaccard", K: 3,
	}, &resp)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if len(resp.Neighbors) != 3 {
		t.Fatalf("got %d neighbors", len(resp.Neighbors))
	}
	_, want := sigtable.ScanNearest(data, target, sigtable.Jaccard{})
	if resp.Neighbors[0].Value != want {
		t.Fatalf("server value %v, oracle %v", resp.Neighbors[0].Value, want)
	}
	if !resp.Certified || resp.Interrupted {
		t.Fatalf("complete run: certified=%v interrupted=%v", resp.Certified, resp.Interrupted)
	}
	if resp.EntriesScanned+resp.EntriesPruned == 0 {
		t.Fatal("no entry accounting in response")
	}
	if len(resp.Neighbors[0].Items) == 0 {
		t.Fatal("neighbor items not returned")
	}
}

func TestQueryValidationEnvelope(t *testing.T) {
	ts, _ := newTestServer(t, Options{})
	cases := []struct {
		name     string
		body     interface{}
		wantCode string
	}{
		{"empty items", QueryRequest{F: "cosine"}, CodeBadRequest},
		{"unknown f", QueryRequest{Items: []sigtable.Item{1}, F: "nope"}, CodeUnknownSimilarity},
		{"unknown sort", QueryRequest{Items: []sigtable.Item{1}, Sort: "zigzag"}, CodeBadRequest},
		{"out of universe", QueryRequest{Items: []sigtable.Item{9999}}, CodeItemOutOfUniverse},
		{"bad fraction", QueryRequest{Items: []sigtable.Item{1}, MaxScanFraction: 7}, CodeBadRequest},
	}
	for _, tc := range cases {
		var e ErrorResponse
		if code := post(t, ts.URL+"/v1/query", tc.body, &e); code != http.StatusBadRequest {
			t.Errorf("%s: status %d", tc.name, code)
		}
		if e.Error.Code != tc.wantCode {
			t.Errorf("%s: code %q, want %q", tc.name, e.Error.Code, tc.wantCode)
		}
		if e.Error.Message == "" {
			t.Errorf("%s: no error message", tc.name)
		}
	}
	// Unknown JSON fields rejected through the same envelope.
	resp, err := http.Post(ts.URL+"/v1/query", "application/json",
		bytes.NewReader([]byte(`{"items":[1],"bogus":true}`)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var e ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || e.Error.Code != CodeBadRequest {
		t.Errorf("unknown field: status %d code %q", resp.StatusCode, e.Error.Code)
	}
}

func TestOversizedBody(t *testing.T) {
	ts, _ := newTestServer(t, Options{MaxBodyBytes: 128})
	big := QueryRequest{Items: make([]sigtable.Item, 200)}
	var e ErrorResponse
	if code := post(t, ts.URL+"/v1/query", big, &e); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d", code)
	}
	if e.Error.Code != CodeBodyTooLarge {
		t.Fatalf("code %q", e.Error.Code)
	}
}

// TestExpiredDeadlinePartialResult is the context-cancellation
// acceptance path: a server whose query deadline has effectively
// already passed must answer promptly with an uncertified, interrupted
// (possibly empty) result rather than an error.
func TestExpiredDeadlinePartialResult(t *testing.T) {
	ts, data := newTestServer(t, Options{QueryTimeout: time.Nanosecond})
	var resp QueryResponse
	code := post(t, ts.URL+"/v1/query", QueryRequest{
		Items: data.Get(5), F: "jaccard", K: 3,
	}, &resp)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if !resp.Interrupted {
		t.Fatal("expired deadline not reported as interrupted")
	}
	if resp.Certified {
		t.Fatal("interrupted result claims certification")
	}

	var rresp RangeResponse
	code = post(t, ts.URL+"/v1/range", RangeRequest{
		Items:       data.Get(5),
		Constraints: []RangeConjunct{{F: "match", Threshold: 1}},
	}, &rresp)
	if code != http.StatusOK || !rresp.Interrupted {
		t.Fatalf("range: status %d interrupted=%v", code, rresp.Interrupted)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	ts, data := newTestServer(t, Options{})
	for i := 0; i < 5; i++ {
		var resp QueryResponse
		if code := post(t, ts.URL+"/v1/query", QueryRequest{
			Items: data.Get(sigtable.TID(i)), F: "cosine", K: 2,
		}, &resp); code != http.StatusOK {
			t.Fatalf("query %d: status %d", i, code)
		}
	}
	post(t, ts.URL+"/v1/range", RangeRequest{
		Items:       data.Get(1),
		Constraints: []RangeConjunct{{F: "match", Threshold: 2}},
	}, nil)

	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(body)

	if !strings.Contains(out, "sigtable_queries_total 5") {
		t.Errorf("metrics missing query count:\n%s", grep(out, "sigtable_queries_total"))
	}
	if !strings.Contains(out, "sigtable_range_queries_total 1") {
		t.Errorf("metrics missing range count:\n%s", grep(out, "sigtable_range"))
	}
	for _, want := range []string{
		"# TYPE sigtable_query_duration_seconds histogram",
		`sigtable_query_duration_seconds_bucket{le="+Inf"} 5`,
		"sigtable_query_duration_seconds_count 5",
		"sigtable_query_scanned_transactions_count 5",
		"# TYPE sigtable_live_transactions gauge",
		"sigtable_live_transactions 3000",
		"# TYPE sigtable_entries_pruned_total counter",
		"# TYPE sigtable_directory_entries_ranked_total counter",
		"# TYPE sigtable_directory_entries_ordered_total counter",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	// Latency histogram actually accumulated into finite buckets.
	if !strings.Contains(out, `sigtable_query_duration_seconds_bucket{le="10"} 5`) {
		t.Errorf("latency buckets not populated:\n%s", grep(out, "duration_seconds_bucket"))
	}
}

func grep(s, substr string) string {
	var b strings.Builder
	for _, line := range strings.Split(s, "\n") {
		if strings.Contains(line, substr) {
			b.WriteString(line)
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// TestUnversionedRoutesNotFound pins the retirement of the pre-/v1
// routes: they are not routed at all and answer 404, while the /v1
// route serves normally with no deprecation signalling.
func TestUnversionedRoutesNotFound(t *testing.T) {
	ts, data := newTestServer(t, Options{})
	b, _ := json.Marshal(QueryRequest{Items: data.Get(3), F: "dice", K: 1})
	resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unversioned route status %d, want %d", resp.StatusCode, http.StatusNotFound)
	}
	if link := resp.Header.Get("Link"); link != "" {
		t.Fatalf("unversioned route carries Link %q", link)
	}
	stats, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	stats.Body.Close()
	if stats.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /stats status %d, want %d", stats.StatusCode, http.StatusNotFound)
	}

	// The v1 route serves normally, with no deprecation signalling.
	resp2, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("v1 route status %d", resp2.StatusCode)
	}
	if resp2.Header.Get("Deprecation") != "" {
		t.Fatal("v1 route carries a Deprecation header")
	}
	var q QueryResponse
	if err := json.NewDecoder(resp2.Body).Decode(&q); err != nil {
		t.Fatal(err)
	}
	if len(q.Neighbors) != 1 {
		t.Fatalf("v1 route returned %d neighbors", len(q.Neighbors))
	}
}

func TestRequestID(t *testing.T) {
	ts, _ := newTestServer(t, Options{})
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.Header.Get("X-Request-ID") == "" {
		t.Fatal("no X-Request-ID assigned")
	}

	req, _ := http.NewRequest("GET", ts.URL+"/v1/stats", nil)
	req.Header.Set("X-Request-ID", "caller-supplied-7")
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if got := resp2.Header.Get("X-Request-ID"); got != "caller-supplied-7" {
		t.Fatalf("request id not propagated: %q", got)
	}
}

func TestRangeEndpoint(t *testing.T) {
	ts, data := newTestServer(t, Options{})
	target := data.Get(5)
	var resp RangeResponse
	code := post(t, ts.URL+"/v1/range", RangeRequest{
		Items: target,
		Constraints: []RangeConjunct{
			{F: "match", Threshold: float64(len(target))},
		},
	}, &resp)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	found := false
	for _, id := range resp.TIDs {
		if id == 5 {
			found = true
		}
	}
	if !found {
		t.Fatalf("range result %v missing the target's own TID", resp.TIDs)
	}
	if resp.Interrupted {
		t.Fatal("unbounded range query reports interrupted")
	}
}

func TestMultiEndpoint(t *testing.T) {
	ts, data := newTestServer(t, Options{})
	var resp MultiResponse
	code := post(t, ts.URL+"/v1/multi", MultiRequest{
		Targets: [][]sigtable.Item{data.Get(1), data.Get(2)},
		F:       "dice", K: 4,
	}, &resp)
	if code != http.StatusOK || len(resp.Neighbors) != 4 {
		t.Fatalf("status %d, %d neighbors", code, len(resp.Neighbors))
	}
	if !resp.Certified {
		t.Fatal("complete multi run not certified")
	}
}

func TestInsertDeleteLifecycle(t *testing.T) {
	ts, _ := newTestServer(t, Options{})
	var ins InsertResponse
	items := []sigtable.Item{7, 77, 177}
	if code := post(t, ts.URL+"/v1/insert", InsertRequest{Items: items}, &ins); code != http.StatusOK {
		t.Fatalf("insert status %d", code)
	}

	// The inserted basket is findable.
	var q QueryResponse
	post(t, ts.URL+"/v1/query", QueryRequest{Items: items, F: "jaccard", K: 1}, &q)
	if q.Neighbors[0].Value != 1 {
		t.Fatalf("inserted basket not found: %v", q.Neighbors)
	}

	// Delete it; a second delete 404s with the envelope.
	var del DeleteResponse
	if code := post(t, ts.URL+"/v1/delete", DeleteRequest{TID: ins.TID}, &del); code != http.StatusOK {
		t.Fatalf("delete status %d", code)
	}
	if del.Deleted != ins.TID {
		t.Fatalf("deleted %d, want %d", del.Deleted, ins.TID)
	}
	var e ErrorResponse
	if code := post(t, ts.URL+"/v1/delete", DeleteRequest{TID: ins.TID}, &e); code != http.StatusNotFound {
		t.Fatalf("double delete status %d", code)
	}
	if e.Error.Code != CodeNotFound {
		t.Fatalf("double delete code %q", e.Error.Code)
	}
}

func TestExplainEndpoint(t *testing.T) {
	ts, data := newTestServer(t, Options{})
	var resp ExplainResponse
	code := post(t, ts.URL+"/v1/explain", ExplainRequest{
		Items: data.Get(9), F: "hamming",
	}, &resp)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if len(resp.Overlaps) != 10 || resp.TotalEntries == 0 || len(resp.Entries) == 0 {
		t.Fatalf("explain = %+v", resp)
	}
}

// TestConcurrentReadsAndWrites hammers the server with parallel queries
// and inserts; run under -race to verify the locking.
func TestConcurrentReadsAndWrites(t *testing.T) {
	ts, data := newTestServer(t, Options{MaxConcurrent: 4})
	// Snapshot query targets up front: the dataset itself is mutated by
	// the insert goroutines, and reading it directly here would bypass
	// the server's lock.
	targets := make([]sigtable.Transaction, 10)
	for i := range targets {
		targets[i] = data.Get(sigtable.TID(i * 10)).Clone()
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if w%2 == 0 {
					var q QueryResponse
					b, _ := json.Marshal(QueryRequest{Items: targets[i], F: "cosine", K: 2})
					resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(b))
					if err != nil {
						errCh <- err
						return
					}
					if err := json.NewDecoder(resp.Body).Decode(&q); err != nil {
						errCh <- err
					}
					resp.Body.Close()
					if len(q.Neighbors) == 0 {
						errCh <- fmt.Errorf("no neighbors")
					}
				} else {
					b, _ := json.Marshal(InsertRequest{Items: []sigtable.Item{sigtable.Item(w), sigtable.Item(i)}})
					resp, err := http.Post(ts.URL+"/v1/insert", "application/json", bytes.NewReader(b))
					if err != nil {
						errCh <- err
						return
					}
					resp.Body.Close()
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	// Metrics survive the hammering with consistent totals.
	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "sigtable_queries_total 40") {
		t.Errorf("query counter drifted:\n%s", grep(string(body), "sigtable_queries_total"))
	}
	if !strings.Contains(string(body), "sigtable_inserts_total 40") {
		t.Errorf("insert counter drifted:\n%s", grep(string(body), "sigtable_inserts_total"))
	}
}

// TestClientDisconnectCancelsSearch verifies the request context is
// what the search runs under: a client that gives up mid-query must
// not leave the handler scanning forever (no goroutine leak under
// -race).
func TestClientDisconnectCancelsSearch(t *testing.T) {
	ts, data := newTestServer(t, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	b, _ := json.Marshal(QueryRequest{Items: data.Get(1), F: "cosine", K: 2})
	req, _ := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/query", bytes.NewReader(b))
	cancel()
	if _, err := http.DefaultClient.Do(req); err == nil {
		t.Fatal("cancelled request succeeded")
	}
}

// TestBatchEndpoint answers a batch both ways and checks the two modes
// agree with each other and with the standalone query endpoint.
func TestBatchEndpoint(t *testing.T) {
	ts, data := newTestServer(t, Options{})
	req := BatchRequest{F: "jaccard", K: 3}
	for i := 0; i < 6; i++ {
		req.Targets = append(req.Targets, data.Get(sigtable.TID(i*100)))
	}

	var indep, shared BatchResponse
	if code := post(t, ts.URL+"/v1/batch", req, &indep); code != http.StatusOK {
		t.Fatalf("independent batch: status %d", code)
	}
	req.SharedScan = true
	if code := post(t, ts.URL+"/v1/batch", req, &shared); code != http.StatusOK {
		t.Fatalf("shared batch: status %d", code)
	}
	if !shared.SharedScan || indep.SharedScan {
		t.Fatalf("sharedScan echo: indep=%v shared=%v", indep.SharedScan, shared.SharedScan)
	}
	if len(indep.Results) != len(req.Targets) || len(shared.Results) != len(req.Targets) {
		t.Fatalf("result counts: indep=%d shared=%d", len(indep.Results), len(shared.Results))
	}
	for i := range req.Targets {
		var q QueryResponse
		post(t, ts.URL+"/v1/query", QueryRequest{Items: req.Targets[i], F: "jaccard", K: 3}, &q)
		for name, r := range map[string]BatchResult{"independent": indep.Results[i], "shared": shared.Results[i]} {
			if !r.Certified || r.Interrupted {
				t.Fatalf("%s slot %d not certified: %+v", name, i, r)
			}
			if len(r.Neighbors) != len(q.Neighbors) {
				t.Fatalf("%s slot %d: %d neighbors, query endpoint %d", name, i, len(r.Neighbors), len(q.Neighbors))
			}
			for j := range r.Neighbors {
				if r.Neighbors[j].TID != q.Neighbors[j].TID || r.Neighbors[j].Value != q.Neighbors[j].Value {
					t.Fatalf("%s slot %d neighbor %d = %+v, query endpoint %+v", name, i, j, r.Neighbors[j], q.Neighbors[j])
				}
			}
			if r.Scanned != q.Scanned || r.EntriesScanned != q.EntriesScanned || r.EntriesPruned != q.EntriesPruned {
				t.Fatalf("%s slot %d cost (%d,%d,%d), query endpoint (%d,%d,%d)", name, i,
					r.Scanned, r.EntriesScanned, r.EntriesPruned, q.Scanned, q.EntriesScanned, q.EntriesPruned)
			}
		}
	}

	// Batch counters moved: 2 batches, 12 targets, 1 shared scan.
	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		"sigtable_batch_queries_total 2",
		"sigtable_batch_targets_total 12",
		"sigtable_batch_shared_scans_total 1",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("missing %q:\n%s", want, grep(string(body), "sigtable_batch"))
		}
	}
}

// TestBatchValidationEnvelope exercises the error paths.
func TestBatchValidationEnvelope(t *testing.T) {
	ts, data := newTestServer(t, Options{})
	cases := []struct {
		name string
		body BatchRequest
	}{
		{"no targets", BatchRequest{F: "jaccard", K: 3}},
		{"empty target", BatchRequest{Targets: [][]sigtable.Item{{}}, K: 3}},
		{"out of universe", BatchRequest{Targets: [][]sigtable.Item{{9999}}, K: 3}},
		{"bad similarity", BatchRequest{Targets: [][]sigtable.Item{data.Get(0)}, F: "nope"}},
		{"negative parallelism", BatchRequest{Targets: [][]sigtable.Item{data.Get(0)}, Parallelism: -1}},
		{"negative k", BatchRequest{Targets: [][]sigtable.Item{data.Get(0)}, K: -1, SharedScan: true}},
	}
	for _, tc := range cases {
		var e ErrorResponse
		if code := post(t, ts.URL+"/v1/batch", tc.body, &e); code != http.StatusBadRequest {
			t.Errorf("%s: status %d", tc.name, code)
		}
		if e.Error.Code == "" {
			t.Errorf("%s: no error envelope", tc.name)
		}
	}
}

// TestDecodeCacheStatsAndMetrics runs a disk-backed server with the
// decode cache attached and checks the cache surfaces in /v1/stats and
// /v1/metrics, that hits accumulate across repeat queries, and that an
// insert records a fine-grained per-list invalidation WITHOUT bumping
// the global generation (only rebuilds orphan the whole cache).
func TestDecodeCacheStatsAndMetrics(t *testing.T) {
	g, err := sigtable.NewGenerator(sigtable.GeneratorConfig{
		UniverseSize: 200, NumItemsets: 300, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	data := g.Dataset(3000)
	idx, err := sigtable.BuildIndex(data, sigtable.IndexOptions{
		SignatureCardinality: 10,
		PageSize:             512,
		DecodeCacheBytes:     1 << 22,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(idx, data, Options{}).Handler())
	defer ts.Close()

	stats := func() StatsResponse {
		resp, err := http.Get(ts.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st StatsResponse
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st
	}
	st := stats()
	if st.DecodeCache == nil {
		t.Fatal("no decodeCache section in /v1/stats")
	}
	if st.DecodeCache.Capacity != 1<<22 {
		t.Fatalf("capacity %d, want %d", st.DecodeCache.Capacity, 1<<22)
	}

	// Repeat the same query: the second run must hit the cache.
	for i := 0; i < 2; i++ {
		var q QueryResponse
		if code := post(t, ts.URL+"/v1/query", QueryRequest{Items: data.Get(7), F: "jaccard", K: 3}, &q); code != http.StatusOK {
			t.Fatalf("query %d: status %d", i, code)
		}
	}
	st = stats()
	if st.DecodeCache.Hits == 0 || st.DecodeCache.Misses == 0 {
		t.Fatalf("repeat query left cache cold: %+v", st.DecodeCache)
	}
	if st.DecodeCache.Bytes == 0 || st.DecodeCache.Lists == 0 {
		t.Fatalf("cache holds nothing after queries: %+v", st.DecodeCache)
	}

	gen := st.DecodeCache.Generation
	listInvs := st.DecodeCache.ListInvalidations
	if code := post(t, ts.URL+"/v1/insert", InsertRequest{Items: data.Get(3)}, nil); code != http.StatusOK {
		t.Fatalf("insert: status %d", code)
	}
	if st = stats(); st.DecodeCache.Generation != gen {
		t.Fatalf("insert bumped the global generation: %d -> %d (wanted a per-list invalidation)", gen, st.DecodeCache.Generation)
	}
	if st.DecodeCache.ListInvalidations <= listInvs {
		t.Fatalf("insert did not record a per-list invalidation: %d -> %d", listInvs, st.DecodeCache.ListInvalidations)
	}
	if st.Snapshot.Version == 0 {
		t.Fatalf("snapshot version still zero after insert: %+v", st.Snapshot)
	}
	if st.Overflow.Transactions == 0 || st.Overflow.Pending == 0 {
		t.Fatalf("insert not accounted by the overflow section: %+v", st.Overflow)
	}

	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		"sigtable_decode_cache_hits_total",
		"sigtable_decode_cache_misses_total",
		`sigtable_decode_cache_invalidations_total{scope="list"}`,
		`sigtable_decode_cache_invalidations_total{scope="global"}`,
		"sigtable_decode_cache_bytes",
		"sigtable_decode_cache_capacity_bytes 4.194304e+06",
		"sigtable_decode_cache_lists",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("missing %q:\n%s", want, grep(string(body), "sigtable_decode_cache"))
		}
	}
}

// TestStorageStatsAndMetrics runs a disk-backed server and checks the
// /v1/stats storage section (page geometry, I/O counters, compression
// ratio) and the pager byte counters in /v1/metrics.
func TestStorageStatsAndMetrics(t *testing.T) {
	g, err := sigtable.NewGenerator(sigtable.GeneratorConfig{
		UniverseSize: 200, NumItemsets: 300, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	data := g.Dataset(3000)
	idx, err := sigtable.BuildIndex(data, sigtable.IndexOptions{
		SignatureCardinality: 10,
		PageSize:             512,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(idx, data, Options{}).Handler())
	defer ts.Close()

	var q QueryResponse
	if code := post(t, ts.URL+"/v1/query", QueryRequest{Items: data.Get(7), F: "cosine", K: 3}, &q); code != http.StatusOK {
		t.Fatalf("query: status %d", code)
	}

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Storage == nil {
		t.Fatal("no storage section in /v1/stats")
	}
	if st.Storage.PageSize != 512 || st.Storage.PageFormat != "v2" {
		t.Fatalf("storage geometry %+v", st.Storage)
	}
	if st.Storage.Pages == 0 || st.Storage.Writes == 0 || st.Storage.BytesWritten == 0 {
		t.Fatalf("build wrote nothing: %+v", st.Storage)
	}
	if st.Storage.Reads == 0 || st.Storage.BytesRead == 0 {
		t.Fatalf("query read nothing: %+v", st.Storage)
	}
	if st.Storage.CompressionRatio <= 1 {
		t.Fatalf("v2 compression ratio %v, want > 1", st.Storage.CompressionRatio)
	}

	mresp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	body, _ := io.ReadAll(mresp.Body)
	for _, want := range []string{
		"sigtable_pager_bytes_read_total",
		"sigtable_pager_bytes_written_total",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("missing %q:\n%s", want, grep(string(body), "sigtable_pager"))
		}
	}
}

// newShardedServer builds the same dataset as buildIndex but serves it
// through the sharded engine.
func newShardedServer(t *testing.T, shards int, opt Options) (*httptest.Server, *sigtable.Dataset) {
	t.Helper()
	g, err := sigtable.NewGenerator(sigtable.GeneratorConfig{
		UniverseSize: 200, NumItemsets: 300, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	data := g.Dataset(3000)
	sx, err := sigtable.NewSharded(data, sigtable.IndexOptions{
		SignatureCardinality: 10, Shards: shards,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(sx, data, opt).Handler())
	t.Cleanup(ts.Close)
	return ts, data
}

// TestShardedServer runs the API surface over the sharded engine:
// queries match the oracle, /v1/stats grows the per-shard section,
// /v1/rebuild accepts a shard field, and /v1/metrics exposes the
// sigtable_shard_* family.
func TestShardedServer(t *testing.T) {
	ts, data := newShardedServer(t, 4, Options{})
	target := data.Get(77)

	var q QueryResponse
	if code := post(t, ts.URL+"/v1/query", QueryRequest{
		Items: target, F: "jaccard", K: 3,
	}, &q); code != http.StatusOK {
		t.Fatalf("query status %d", code)
	}
	_, want := sigtable.ScanNearest(data, target, sigtable.Jaccard{})
	if len(q.Neighbors) != 3 || q.Neighbors[0].Value != want {
		t.Fatalf("sharded query = %+v, oracle best %v", q.Neighbors, want)
	}
	if !q.Certified {
		t.Fatal("complete sharded run not certified")
	}

	// Stats: per-shard rows covering every transaction exactly once.
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(st.Shards) != 4 {
		t.Fatalf("stats shards rows = %d, want 4", len(st.Shards))
	}
	totalLive, totalScans := 0, int64(0)
	for i, sh := range st.Shards {
		if sh.Shard != i {
			t.Fatalf("row %d labeled shard %d", i, sh.Shard)
		}
		totalLive += sh.Live
		totalScans += sh.Scans
	}
	if totalLive != 3000 {
		t.Fatalf("shard live sum %d, want 3000", totalLive)
	}
	if totalScans == 0 {
		t.Fatal("no shard reported query fan-outs after a query")
	}

	// Insert/delete round trip through the sharded engine.
	var ins InsertResponse
	items := []sigtable.Item{7, 77, 177}
	if code := post(t, ts.URL+"/v1/insert", InsertRequest{Items: items}, &ins); code != http.StatusOK {
		t.Fatalf("insert status %d", code)
	}
	var q2 QueryResponse
	post(t, ts.URL+"/v1/query", QueryRequest{Items: items, F: "jaccard", K: 1}, &q2)
	if len(q2.Neighbors) == 0 || q2.Neighbors[0].Value != 1 {
		t.Fatalf("inserted basket not found: %v", q2.Neighbors)
	}
	var del DeleteResponse
	if code := post(t, ts.URL+"/v1/delete", DeleteRequest{TID: ins.TID}, &del); code != http.StatusOK {
		t.Fatalf("delete status %d", code)
	}

	// Single-shard rebuild: echoes the shard, leaves results intact.
	shard := 2
	var rb RebuildResponse
	if code := post(t, ts.URL+"/v1/rebuild", RebuildRequest{Shard: &shard}, &rb); code != http.StatusOK {
		t.Fatalf("shard rebuild status %d", code)
	}
	if rb.Shard == nil || *rb.Shard != 2 {
		t.Fatalf("rebuild response shard = %v", rb.Shard)
	}
	if rb.Live != 3000 {
		t.Fatalf("rebuild live %d, want 3000", rb.Live)
	}
	bad := 99
	var e ErrorResponse
	if code := post(t, ts.URL+"/v1/rebuild", RebuildRequest{Shard: &bad}, &e); code != http.StatusBadRequest {
		t.Fatalf("out-of-range shard rebuild status %d", code)
	}
	// Full rebuild still works on the sharded engine.
	var rb2 RebuildResponse
	if code := post(t, ts.URL+"/v1/rebuild", RebuildRequest{}, &rb2); code != http.StatusOK {
		t.Fatalf("full rebuild status %d", code)
	}
	var q3 QueryResponse
	post(t, ts.URL+"/v1/query", QueryRequest{Items: target, F: "jaccard", K: 3}, &q3)
	if q3.Neighbors[0].Value != want {
		t.Fatalf("post-rebuild best %v, oracle %v", q3.Neighbors[0].Value, want)
	}

	// Metrics: the per-shard family with one series per shard label.
	mresp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	body, _ := io.ReadAll(mresp.Body)
	out := string(body)
	for _, want := range []string{
		"# TYPE sigtable_shard_live_transactions gauge",
		`sigtable_shard_live_transactions{shard="0"}`,
		`sigtable_shard_live_transactions{shard="3"}`,
		`sigtable_shard_transactions{shard="1"}`,
		`sigtable_shard_entries{shard="2"}`,
		"# TYPE sigtable_shard_scans_total counter",
		`sigtable_shard_scans_total{shard="0"}`,
		`sigtable_shard_lock_wait_seconds_total{shard="0"}`,
		`sigtable_shard_pages_read_total{shard="0"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q:\n%s", want, grep(out, "sigtable_shard"))
		}
	}
}

// TestRebuildShardFieldOnSingleIndex: asking a single-table server for
// a per-shard rebuild is a client error, not a silent full rebuild.
func TestRebuildShardFieldOnSingleIndex(t *testing.T) {
	ts, _ := newTestServer(t, Options{})
	shard := 0
	var e ErrorResponse
	if code := post(t, ts.URL+"/v1/rebuild", RebuildRequest{Shard: &shard}, &e); code != http.StatusBadRequest {
		t.Fatalf("status %d", code)
	}
	if e.Error.Code != CodeBadRequest || !strings.Contains(e.Error.Message, "not sharded") {
		t.Fatalf("error = %+v", e.Error)
	}
	// And a single-table server reports no shards section.
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Shards != nil {
		t.Fatalf("single-table stats has shards section: %+v", st.Shards)
	}
}
