// Package server exposes a signature table index over a versioned HTTP
// JSON API, the deployment shape the paper's peer-recommendation use
// case implies: one resident index, many concurrent similarity
// queries, occasional inserts.
//
// Versioned endpoints (v1):
//
//	GET  /v1/stats                          index statistics + build phase times
//	GET  /v1/metrics                        Prometheus text exposition
//	POST /v1/query   {items, f, k, maxScanFraction, sort}
//	POST /v1/range   {items, constraints: [{f, threshold}]}
//	POST /v1/multi   {targets, f, k, maxScanFraction}
//	POST /v1/batch   {targets, f, k, sharedScan, parallelism}
//	POST /v1/insert  {items} or {batch: [[items], ...]}
//	POST /v1/delete  {tid}
//	POST /v1/explain {items, f}
//	POST /v1/rebuild {parallelism}          in-place compaction
//
// The pre-versioning unversioned routes (/query, /stats, ...) are
// retired: they answer 410 Gone with the /v1 successor named in the
// error envelope and a Link header, so a stale client gets a machine-
// readable forwarding address instead of silently changing behavior.
// /debug/pprof is wired for live profiling.
//
// The server holds any sigtable.Engine — a single-table Index or a
// ShardedIndex. With a sharded engine, /v1/stats gains a per-shard
// "shards" section, /v1/rebuild accepts a "shard" field to compact one
// shard without draining the others, and the sigtable_shard_* metric
// family exports per-shard sizes, query fan-out, lock wait and page
// reads.
//
// Every error is the envelope {"error": {"code", "message"}}; codes
// are the Code* constants. Each query-path handler derives a context
// from the request, bounded by Options.QueryTimeout: a deadline or a
// client disconnect aborts the branch-and-bound scan mid-flight and
// returns the partial result with "interrupted": true and
// "certified": false.
//
// Concurrency control lives in the engine itself: queries run
// lock-free against an immutable published snapshot, while inserts and
// deletes derive and publish a new snapshot without ever blocking
// them. /v1/range requests accept a "parallelism" field selecting the
// number of goroutines partitioning the entry scan (0 uses
// Options.QueryParallelism); k-NN searches always run one serial
// branch-and-bound loop. A semaphore bounds in-flight requests
// (Options.MaxConcurrent); request-ID and access-log middleware wrap
// every route.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"runtime"
	"time"

	"sigtable"
	"sigtable/internal/metrics"
)

// Error codes used in the error envelope.
const (
	// CodeBadRequest covers malformed JSON and invalid option values.
	CodeBadRequest = "bad_request"
	// CodeUnknownSimilarity is returned for an unrecognized similarity
	// function name.
	CodeUnknownSimilarity = "unknown_similarity"
	// CodeItemOutOfUniverse is returned when a target references an
	// item id outside the indexed universe.
	CodeItemOutOfUniverse = "item_out_of_universe"
	// CodeBodyTooLarge is returned when the request body exceeds
	// Options.MaxBodyBytes.
	CodeBodyTooLarge = "body_too_large"
	// CodeNotFound is returned for a delete of an absent TID.
	CodeNotFound = "not_found"
	// CodeOverloaded is returned when the concurrency limit could not
	// be acquired before the client gave up.
	CodeOverloaded = "overloaded"
	// CodeGone is returned for retired pre-/v1 unversioned routes; the
	// message names the /v1 successor.
	CodeGone = "gone"
)

// Options tunes the server's operational envelope.
type Options struct {
	// QueryTimeout bounds each query/range/multi search: the handler
	// context expires after this long and the search returns its
	// partial, uncertified result. 0 disables the per-request
	// deadline (the client's disconnect still cancels).
	QueryTimeout time.Duration
	// MaxConcurrent bounds in-flight requests (excluding /v1/metrics
	// and /debug/pprof, which must stay reachable under load). 0
	// selects 4×GOMAXPROCS.
	MaxConcurrent int
	// MaxBodyBytes caps request body size. 0 selects 1 MiB.
	MaxBodyBytes int64
	// QueryParallelism is the /v1/range partitioning width applied when
	// a request does not carry its own "parallelism". 0 selects 1
	// (serial scans), the right default when throughput across
	// concurrent requests matters more than single-query latency.
	// k-NN searches (/v1/query, /v1/multi) always run serially; they
	// still validate a request's "parallelism" but do not use it.
	QueryParallelism int
	// BuildParallelism is the rebuild worker count applied when a
	// /v1/rebuild request does not carry its own "parallelism". 0
	// selects GOMAXPROCS.
	BuildParallelism int
	// ReadaheadDepth is the SearchOptions.ReadaheadDepth applied to
	// every search: how many upcoming ranked entries each query offers
	// to the index's prefetch pipeline (when one is attached). 0 uses
	// the pipeline's adaptive depth, negative disables prefetch.
	// Results are identical at every setting.
	ReadaheadDepth int
	// Logger receives one access-log line per request. nil disables
	// access logging (request IDs are still assigned).
	Logger *log.Logger
}

func (o Options) withDefaults() Options {
	if o.MaxConcurrent == 0 {
		o.MaxConcurrent = 4 * runtime.GOMAXPROCS(0)
	}
	if o.MaxBodyBytes == 0 {
		o.MaxBodyBytes = 1 << 20
	}
	return o
}

// Server wraps an index engine with request handling and telemetry.
// The engine carries its own locking, so the server holds no lock of
// its own.
type Server struct {
	idx  sigtable.Engine
	data *sigtable.Dataset
	opt  Options
	reg  *metrics.Registry
	met  *opMetrics
	sem  chan struct{}
}

// New creates a Server around a built index engine (a single-table
// *sigtable.Index or a *sigtable.ShardedIndex) and its dataset.
func New(idx sigtable.Engine, data *sigtable.Dataset, opt Options) *Server {
	opt = opt.withDefaults()
	s := &Server{
		idx:  idx,
		data: data,
		opt:  opt,
		reg:  metrics.NewRegistry(),
		sem:  make(chan struct{}, opt.MaxConcurrent),
	}
	s.met = newOpMetrics(s.reg, s)
	return s
}

// Metrics returns the server's metric registry (for tests and for
// embedding the server under a larger process's registry).
func (s *Server) Metrics() *metrics.Registry { return s.reg }

// Handler returns the routed HTTP handler with middleware applied.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	routes := []struct {
		method, name string
		h            http.HandlerFunc
	}{
		{"GET", "stats", s.handleStats},
		{"POST", "query", s.handleQuery},
		{"POST", "range", s.handleRange},
		{"POST", "multi", s.handleMulti},
		{"POST", "batch", s.handleBatch},
		{"POST", "insert", s.handleInsert},
		{"POST", "delete", s.handleDelete},
		{"POST", "explain", s.handleExplain},
		{"POST", "rebuild", s.handleRebuild},
	}
	for _, rt := range routes {
		mux.HandleFunc(rt.method+" /v1/"+rt.name, rt.h)
		mux.HandleFunc(rt.method+" /"+rt.name, s.gone("/v1/"+rt.name))
	}
	mux.HandleFunc("GET /v1/metrics", s.handleMetrics)

	// Live profiling; net/http/pprof only self-registers on the
	// default mux, so wire its handlers explicitly.
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)

	return s.withMiddleware(mux)
}

// gone answers a retired unversioned route: 410 with the successor in
// both the error envelope and a Link header
// (draft-ietf-httpapi-deprecation-header shape). The pre-/v1 aliases
// served the live handlers through one deprecation cycle; now that the
// cycle has lapsed they fail loudly instead of drifting.
func (s *Server) gone(successor string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Link", fmt.Sprintf("<%s>; rel=\"successor-version\"", successor))
		s.writeErr(w, http.StatusGone, CodeGone,
			"unversioned route %s has been retired; use %s", r.URL.Path, successor)
	}
}

// Neighbor is one k-NN result row.
type Neighbor struct {
	TID   sigtable.TID    `json:"tid"`
	Value float64         `json:"value"`
	Items []sigtable.Item `json:"items"`
}

// QueryRequest is the /v1/query body.
type QueryRequest struct {
	Items           []sigtable.Item `json:"items"`
	F               string          `json:"f"`
	K               int             `json:"k"`
	MaxScanFraction float64         `json:"maxScanFraction"`
	Sort            string          `json:"sort"`
	// Parallelism is accepted for compatibility and must be
	// non-negative; a k-NN search always runs one serial loop.
	Parallelism int `json:"parallelism"`
}

// QueryResponse is the /v1/query reply.
type QueryResponse struct {
	Neighbors      []Neighbor `json:"neighbors"`
	Scanned        int        `json:"scanned"`
	Pruning        float64    `json:"pruningPct"`
	EntriesScanned int        `json:"entriesScanned"`
	EntriesPruned  int        `json:"entriesPruned"`
	Workers        int        `json:"workers"`
	Certified      bool       `json:"certified"`
	Interrupted    bool       `json:"interrupted"`
}

// RangeRequest is the /v1/range body.
type RangeRequest struct {
	Items       []sigtable.Item `json:"items"`
	Constraints []RangeConjunct `json:"constraints"`
	Parallelism int             `json:"parallelism"`
}

// RangeConjunct is one (similarity, threshold) pair.
type RangeConjunct struct {
	F         string  `json:"f"`
	Threshold float64 `json:"threshold"`
}

// RangeResponse is the /v1/range reply.
type RangeResponse struct {
	TIDs           []sigtable.TID `json:"tids"`
	Scanned        int            `json:"scanned"`
	EntriesScanned int            `json:"entriesScanned"`
	EntriesPruned  int            `json:"entriesPruned"`
	Workers        int            `json:"workers"`
	Interrupted    bool           `json:"interrupted"`
}

// MultiRequest is the /v1/multi body.
type MultiRequest struct {
	Targets         [][]sigtable.Item `json:"targets"`
	F               string            `json:"f"`
	K               int               `json:"k"`
	MaxScanFraction float64           `json:"maxScanFraction"`
	Parallelism     int               `json:"parallelism"`
}

// MultiResponse is the /v1/multi reply.
type MultiResponse struct {
	Neighbors   []Neighbor `json:"neighbors"`
	Scanned     int        `json:"scanned"`
	Workers     int        `json:"workers"`
	Certified   bool       `json:"certified"`
	Interrupted bool       `json:"interrupted"`
}

// BatchRequest is the /v1/batch body: one k-NN query per target,
// answered in target order. SharedScan selects the shared-scan engine,
// which drives ONE pass over the signature table for the whole batch
// and decodes each hot entry once; results are identical to independent
// queries, only the I/O differs. Parallelism is the batch's worker
// knob (independent mode: worker-pool width; shared mode: scoring
// fan-out), 0 selecting the engine default.
type BatchRequest struct {
	Targets         [][]sigtable.Item `json:"targets"`
	F               string            `json:"f"`
	K               int               `json:"k"`
	MaxScanFraction float64           `json:"maxScanFraction"`
	Sort            string            `json:"sort"`
	SharedScan      bool              `json:"sharedScan"`
	Parallelism     int               `json:"parallelism"`
}

// BatchResult is one slot of the /v1/batch reply, aligned with the
// request's targets.
type BatchResult struct {
	Neighbors      []Neighbor `json:"neighbors"`
	Scanned        int        `json:"scanned"`
	EntriesScanned int        `json:"entriesScanned"`
	EntriesPruned  int        `json:"entriesPruned"`
	PagesRead      int64      `json:"pagesRead"`
	Certified      bool       `json:"certified"`
	Interrupted    bool       `json:"interrupted"`
}

// BatchResponse is the /v1/batch reply.
type BatchResponse struct {
	Results    []BatchResult `json:"results"`
	SharedScan bool          `json:"sharedScan"`
}

// InsertRequest is the /v1/insert body: either a single transaction
// (items) or several (batch), not both. A batch is applied as one
// snapshot publication.
type InsertRequest struct {
	Items []sigtable.Item   `json:"items,omitempty"`
	Batch [][]sigtable.Item `json:"batch,omitempty"`
}

// InsertResponse is the /v1/insert reply. A single insert answers in
// TID; a batch answers in TIDs (request order) and leaves TID zero.
type InsertResponse struct {
	TID  sigtable.TID   `json:"tid"`
	TIDs []sigtable.TID `json:"tids,omitempty"`
}

// RebuildRequest is the /v1/rebuild body. Parallelism is the build
// worker count: 0 falls back to the server's configured default
// (which itself defaults to GOMAXPROCS). Shard, on a sharded engine,
// compacts only that shard — queries on the other shards keep running
// — while omitting it compacts the whole engine; on a single-table
// index setting Shard is an error.
type RebuildRequest struct {
	Parallelism int  `json:"parallelism"`
	Shard       *int `json:"shard,omitempty"`
}

// RebuildResponse is the /v1/rebuild reply. Shard echoes a
// single-shard compaction's target.
type RebuildResponse struct {
	Live       int     `json:"live"`
	Entries    int     `json:"entries"`
	Workers    int     `json:"workers"`
	DurationMS float64 `json:"durationMs"`
	Shard      *int    `json:"shard,omitempty"`
}

// DeleteRequest is the /v1/delete body.
type DeleteRequest struct {
	TID sigtable.TID `json:"tid"`
}

// DeleteResponse is the /v1/delete reply.
type DeleteResponse struct {
	Deleted sigtable.TID `json:"deleted"`
}

// ExplainRequest is the /v1/explain body.
type ExplainRequest struct {
	Items []sigtable.Item `json:"items"`
	F     string          `json:"f"`
}

// ExplainEntry is one row of an explanation: how an occupied entry
// bounds the target, with the directory decomposition of its M_opt and
// D_opt components: matchOpt = baseMatch + deltaMatch and
// distOpt = baseDist + r·activeBits + deltaDist (base terms on the
// response envelope).
type ExplainEntry struct {
	Coord      uint64  `json:"coord"`
	Count      int     `json:"count"`
	MatchOpt   int     `json:"matchOpt"`
	DistOpt    int     `json:"distOpt"`
	Bound      float64 `json:"bound"`
	ActiveBits int     `json:"activeBits"`
	DeltaMatch int     `json:"deltaMatch"`
	DeltaDist  int     `json:"deltaDist"`
}

// ExplainResponse is the /v1/explain reply (entries truncated to the
// visiting-order head). BaseMatch/BaseDist are the bound
// decomposition's all-inactive baseline, shared by every entry row.
type ExplainResponse struct {
	TargetCoord  uint64         `json:"targetCoord"`
	Overlaps     []int          `json:"overlaps"`
	BaseMatch    int            `json:"baseMatch"`
	BaseDist     int            `json:"baseDist"`
	Entries      []ExplainEntry `json:"entries"`
	TotalEntries int            `json:"totalEntries"`
}

// BuildInfo is the /v1/stats build section: the wall-time breakdown
// of the most recent index construction (BuildIndex or /v1/rebuild).
type BuildInfo struct {
	Workers     int     `json:"workers"`
	MiningMS    float64 `json:"miningMs"`
	PartitionMS float64 `json:"partitionMs"`
	CoordsMS    float64 `json:"coordsMs"`
	GroupMS     float64 `json:"groupMs"`
	WriteMS     float64 `json:"writeMs"`
	TotalMS     float64 `json:"totalMs"`
}

// PoolInfo is the /v1/stats buffer-pool section (absent in memory mode
// or without a pool).
type PoolInfo struct {
	Shards    int     `json:"shards"`
	Capacity  int     `json:"capacity"`
	Resident  int     `json:"resident"`
	Hits      int64   `json:"hits"`
	Misses    int64   `json:"misses"`
	HitRate   float64 `json:"hitRate"`
	Contended int64   `json:"contended"`
}

// DecodeCacheInfo is the /v1/stats decode-cache section (absent when no
// cache is attached): the hot-entry cache that memoizes fully decoded
// transaction lists so repeat scans skip both page fetches and varint
// decoding. ListInvalidations counts fine-grained single-entry
// evictions (the path mutations take); GlobalInvalidations counts
// generation bumps that orphan every cached decode (rebuilds).
type DecodeCacheInfo struct {
	Hits                int64   `json:"hits"`
	Misses              int64   `json:"misses"`
	HitRate             float64 `json:"hitRate"`
	Bytes               int64   `json:"bytes"`
	Capacity            int64   `json:"capacity"`
	Lists               int     `json:"lists"`
	Generation          uint64  `json:"generation"`
	ListInvalidations   uint64  `json:"listInvalidations"`
	GlobalInvalidations uint64  `json:"globalInvalidations"`
}

// StorageInfo is the /v1/stats storage section (absent in memory
// mode): the page store's geometry, cumulative I/O counters and the
// write-side compression ratio (logical record bytes over page bytes
// written; 1.0 under the uncompressed v1 layout, higher under the
// block-compressed v2 layout).
type StorageInfo struct {
	PageSize   int    `json:"pageSize"`
	PageFormat string `json:"pageFormat"`
	Pages      int    `json:"pages"`
	Reads      int64  `json:"reads"`
	Misses     int64  `json:"misses"`
	Writes     int64  `json:"writes"`
	// BackendReads counts actual backend read calls (pread syscalls in
	// file mode). Run coalescing fetches consecutive missing pages in
	// one call, so BackendReads ≤ Misses; CoalescedReads of them
	// covered more than one page, fetching ReadRunPages pages total.
	BackendReads     int64   `json:"backendReads"`
	CoalescedReads   int64   `json:"coalescedReads"`
	ReadRunPages     int64   `json:"readRunPages"`
	BytesRead        int64   `json:"bytesRead"`
	BytesWritten     int64   `json:"bytesWritten"`
	CompressionRatio float64 `json:"compressionRatio"`
}

// PrefetchInfo is the /v1/stats prefetch section (absent without a
// prefetch pipeline): the async ranked-entry readahead workers that
// warm the buffer pool ahead of the branch-and-bound scan.
type PrefetchInfo struct {
	Workers int   `json:"workers"`
	Depth   int   `json:"depth"`
	Issued  int64 `json:"issued"`
	Hits    int64 `json:"hits"`
	Wasted  int64 `json:"wasted"`
	Dropped int64 `json:"dropped"`
}

// SnapshotInfo is the /v1/stats snapshot section: the engine's
// published-snapshot version, a monotone counter advancing with every
// Insert/Delete (summed across shards on a sharded engine).
type SnapshotInfo struct {
	Version uint64 `json:"version"`
}

// OverflowInfo is the /v1/stats overflow section: the batched
// overflow-flush pipeline that buffers disk-mode inserts in memory and
// periodically encodes them into fresh page segments (DESIGN.md §4i).
// All-zero in memory mode or with flushing disabled.
type OverflowInfo struct {
	Transactions uint64  `json:"transactions"`
	Pending      int     `json:"pending"`
	Flushes      uint64  `json:"flushes"`
	FlushSeconds float64 `json:"flushSeconds"`
}

// ShardInfo is one row of the /v1/stats shards section: the shard's
// sizes and its query fan-out, lock-wait and page-read counters.
type ShardInfo struct {
	Shard        int     `json:"shard"`
	Live         int     `json:"live"`
	Transactions int     `json:"transactions"`
	Entries      int     `json:"entries"`
	Scans        int64   `json:"scans"`
	LockWaitMS   float64 `json:"lockWaitMs"`
	PagesRead    int64   `json:"pagesRead"`
}

// DirectoryInfo is the /v1/stats entry-directory section: the columnar
// signature-major activation index that ranks entries bit-sliced
// (DESIGN.md §4h). Slots and Bytes are summed across shards for a
// sharded engine; the ranking counters are process-wide.
type DirectoryInfo struct {
	Slots       int     `json:"slots"`
	Bytes       int64   `json:"bytes"`
	Rebuilds    uint64  `json:"rebuilds"`
	Ranks       uint64  `json:"ranks"`
	RankSeconds float64 `json:"rankSeconds"`
}

// StatsResponse is the /v1/stats reply. Pool and DecodeCache appear
// for a disk-backed single-table index; Shards appears for a sharded
// engine.
type StatsResponse struct {
	Transactions int              `json:"transactions"`
	Live         int              `json:"live"`
	K            int              `json:"k"`
	Entries      int              `json:"entries"`
	Universe     int              `json:"universe"`
	Build        BuildInfo        `json:"build"`
	Snapshot     SnapshotInfo     `json:"snapshot"`
	Overflow     OverflowInfo     `json:"overflow"`
	Directory    *DirectoryInfo   `json:"directory,omitempty"`
	Storage      *StorageInfo     `json:"storage,omitempty"`
	Pool         *PoolInfo        `json:"pool,omitempty"`
	DecodeCache  *DecodeCacheInfo `json:"decodeCache,omitempty"`
	Prefetch     *PrefetchInfo    `json:"prefetch,omitempty"`
	Shards       []ShardInfo      `json:"shards,omitempty"`
}

// ErrorInfo is the error envelope payload.
type ErrorInfo struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// ErrorResponse is the uniform error envelope every handler uses.
type ErrorResponse struct {
	Error ErrorInfo `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func (s *Server) writeErr(w http.ResponseWriter, status int, code, format string, args ...interface{}) {
	s.met.errors.Inc()
	writeJSON(w, status, ErrorResponse{Error: ErrorInfo{Code: code, Message: fmt.Sprintf(format, args...)}})
}

func (s *Server) decode(w http.ResponseWriter, r *http.Request, v interface{}) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.opt.MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			s.writeErr(w, http.StatusRequestEntityTooLarge, CodeBodyTooLarge,
				"request body exceeds %d bytes", tooLarge.Limit)
			return false
		}
		s.writeErr(w, http.StatusBadRequest, CodeBadRequest, "bad request body: %v", err)
		return false
	}
	return true
}

func (s *Server) similarity(w http.ResponseWriter, name string) (sigtable.SimilarityFunc, bool) {
	if name == "" {
		name = "cosine"
	}
	f, err := sigtable.SimilarityByName(name)
	if err != nil {
		s.writeErr(w, http.StatusBadRequest, CodeUnknownSimilarity, "%v", err)
		return nil, false
	}
	return f, true
}

func (s *Server) sortCriterion(w http.ResponseWriter, name string) (sigtable.SortCriterion, bool) {
	switch name {
	case "", "bound":
		return sigtable.ByOptimisticBound, true
	case "coord":
		return sigtable.ByCoordSimilarity, true
	default:
		s.writeErr(w, http.StatusBadRequest, CodeBadRequest, "unknown sort %q (want bound or coord)", name)
		return 0, false
	}
}

func (s *Server) target(w http.ResponseWriter, items []sigtable.Item) (sigtable.Transaction, bool) {
	if len(items) == 0 {
		s.writeErr(w, http.StatusBadRequest, CodeBadRequest, "target has no items")
		return nil, false
	}
	for _, it := range items {
		if int(it) >= s.data.UniverseSize() {
			s.writeErr(w, http.StatusBadRequest, CodeItemOutOfUniverse,
				"item %d outside universe of size %d", it, s.data.UniverseSize())
			return nil, false
		}
	}
	return sigtable.NewTransaction(items...), true
}

// parallelism resolves a request's range-scan worker count: positive
// is explicit, zero falls back to the server's configured default, and
// negative is rejected. k-NN handlers call it only to validate.
func (s *Server) parallelism(w http.ResponseWriter, requested int) (int, bool) {
	if requested < 0 {
		s.writeErr(w, http.StatusBadRequest, CodeBadRequest, "parallelism %d must be non-negative", requested)
		return 0, false
	}
	if requested > 0 {
		return requested, true
	}
	if s.opt.QueryParallelism > 0 {
		return s.opt.QueryParallelism, true
	}
	return 1, true
}

// neighbors materializes result rows; Items locks per lookup, and the
// returned transactions are immutable once stored.
func (s *Server) neighbors(cands []sigtable.Candidate) []Neighbor {
	out := make([]Neighbor, len(cands))
	for i, c := range cands {
		out[i] = Neighbor{TID: c.TID, Value: c.Value, Items: s.idx.Items(c.TID)}
	}
	return out
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	bs := s.idx.BuildStats()
	resp := StatsResponse{
		Transactions: s.idx.Len(),
		Live:         s.idx.Live(),
		K:            s.idx.K(),
		Entries:      s.idx.NumEntries(),
		Universe:     s.data.UniverseSize(),
		Build: BuildInfo{
			Workers:     bs.Workers,
			MiningMS:    ms(bs.Mining),
			PartitionMS: ms(bs.Partition),
			CoordsMS:    ms(bs.Coords),
			GroupMS:     ms(bs.Group),
			WriteMS:     ms(bs.Write),
			TotalMS:     ms(bs.Total()),
		},
		Snapshot: SnapshotInfo{Version: s.idx.SnapshotVersion()},
	}
	ov := s.idx.OverflowStats()
	resp.Overflow = OverflowInfo{
		Transactions: ov.Transactions,
		Pending:      ov.Pending,
		Flushes:      ov.Flushes,
		FlushSeconds: ov.FlushSeconds,
	}
	ds := s.idx.DirectoryStats()
	resp.Directory = &DirectoryInfo{
		Slots:       ds.Slots,
		Bytes:       ds.Bytes,
		Rebuilds:    ds.Rebuilds,
		Ranks:       ds.Ranks,
		RankSeconds: ds.RankSeconds,
	}
	if sx, ok := s.idx.(*sigtable.ShardedIndex); ok {
		for _, st := range sx.ShardStats() {
			resp.Shards = append(resp.Shards, ShardInfo{
				Shard:        st.Shard,
				Live:         st.Live,
				Transactions: st.Len,
				Entries:      st.Entries,
				Scans:        st.Scans,
				LockWaitMS:   float64(st.LockWaitNanos) / 1e6,
				PagesRead:    st.PagesRead,
			})
		}
	}
	if store := singleTableStore(s.idx); store != nil {
		st := store.Stats()
		ratio := 0.0
		if st.BytesWritten > 0 {
			ratio = float64(st.BytesLogical) / float64(st.BytesWritten)
		}
		resp.Storage = &StorageInfo{
			PageSize:         store.PageSize(),
			PageFormat:       store.Format().String(),
			Pages:            store.NumPages(),
			Reads:            st.Reads,
			Misses:           st.Misses,
			Writes:           st.Writes,
			BackendReads:     st.BackendReads,
			CoalescedReads:   st.CoalescedReads,
			ReadRunPages:     st.ReadRunPages,
			BytesRead:        st.BytesRead,
			BytesWritten:     st.BytesWritten,
			CompressionRatio: ratio,
		}
		if pool := store.Pool(); pool != nil {
			hits, misses := pool.Stats()
			resp.Pool = &PoolInfo{
				Shards:    pool.Shards(),
				Capacity:  pool.Capacity(),
				Resident:  pool.Len(),
				Hits:      hits,
				Misses:    misses,
				HitRate:   pool.HitRate(),
				Contended: pool.Contention(),
			}
		}
		if dc := store.DecodeCache(); dc != nil {
			hits, misses := dc.Stats()
			listInvs, globalInvs := dc.Invalidations()
			resp.DecodeCache = &DecodeCacheInfo{
				Hits:                hits,
				Misses:              misses,
				HitRate:             dc.HitRate(),
				Bytes:               dc.Bytes(),
				Capacity:            dc.Capacity(),
				Lists:               dc.Len(),
				Generation:          dc.Generation(),
				ListInvalidations:   listInvs,
				GlobalInvalidations: globalInvs,
			}
		}
		if pf := store.Prefetcher(); pf != nil {
			ps := pf.Stats()
			resp.Prefetch = &PrefetchInfo{
				Workers: ps.Workers,
				Depth:   ps.Depth,
				Issued:  ps.Issued,
				Hits:    ps.Hits,
				Wasted:  ps.Wasted,
				Dropped: ps.Dropped,
			}
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.reg.WritePrometheus(w)
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req QueryRequest
	if !s.decode(w, r, &req) {
		return
	}
	f, ok := s.similarity(w, req.F)
	if !ok {
		return
	}
	sortBy, ok := s.sortCriterion(w, req.Sort)
	if !ok {
		return
	}
	target, ok := s.target(w, req.Items)
	if !ok {
		return
	}
	if _, ok := s.parallelism(w, req.Parallelism); !ok {
		return
	}

	ctx, cancel := s.queryContext(r)
	defer cancel()
	start := time.Now()

	res, err := s.idx.Query(ctx, target, f, sigtable.SearchOptions{
		K:               req.K,
		MaxScanFraction: req.MaxScanFraction,
		SortBy:          sortBy,
		ReadaheadDepth:  s.opt.ReadaheadDepth,
	})
	if err != nil {
		s.writeErr(w, http.StatusBadRequest, CodeBadRequest, "%v", err)
		return
	}
	s.met.observeQuery(time.Since(start), res)
	writeJSON(w, http.StatusOK, QueryResponse{
		Neighbors:      s.neighbors(res.Neighbors),
		Scanned:        res.Scanned,
		Pruning:        res.PruningEfficiency(s.idx.Live()),
		EntriesScanned: res.EntriesScanned,
		EntriesPruned:  res.EntriesPruned,
		Workers:        res.Workers,
		Certified:      res.Certified,
		Interrupted:    res.Interrupted,
	})
}

func (s *Server) handleRange(w http.ResponseWriter, r *http.Request) {
	var req RangeRequest
	if !s.decode(w, r, &req) {
		return
	}
	target, ok := s.target(w, req.Items)
	if !ok {
		return
	}
	constraints := make([]sigtable.RangeConstraint, len(req.Constraints))
	for i, c := range req.Constraints {
		f, ok := s.similarity(w, c.F)
		if !ok {
			return
		}
		constraints[i] = sigtable.RangeConstraint{F: f, Threshold: c.Threshold}
	}
	par, ok := s.parallelism(w, req.Parallelism)
	if !ok {
		return
	}

	ctx, cancel := s.queryContext(r)
	defer cancel()
	start := time.Now()

	res, err := s.idx.RangeQuery(ctx, target, constraints, sigtable.RangeOptions{Parallelism: par})
	if err != nil {
		s.writeErr(w, http.StatusBadRequest, CodeBadRequest, "%v", err)
		return
	}
	s.met.observeRange(time.Since(start), res)
	tids := res.TIDs
	if tids == nil {
		tids = []sigtable.TID{}
	}
	writeJSON(w, http.StatusOK, RangeResponse{
		TIDs:           tids,
		Scanned:        res.Scanned,
		EntriesScanned: res.EntriesScanned,
		EntriesPruned:  res.EntriesPruned,
		Workers:        res.Workers,
		Interrupted:    res.Interrupted,
	})
}

func (s *Server) handleMulti(w http.ResponseWriter, r *http.Request) {
	var req MultiRequest
	if !s.decode(w, r, &req) {
		return
	}
	f, ok := s.similarity(w, req.F)
	if !ok {
		return
	}
	targets := make([]sigtable.Transaction, len(req.Targets))
	for i, items := range req.Targets {
		t, ok := s.target(w, items)
		if !ok {
			return
		}
		targets[i] = t
	}
	if _, ok := s.parallelism(w, req.Parallelism); !ok {
		return
	}

	ctx, cancel := s.queryContext(r)
	defer cancel()
	start := time.Now()

	res, err := s.idx.MultiQuery(ctx, targets, f, sigtable.SearchOptions{
		K:               req.K,
		MaxScanFraction: req.MaxScanFraction,
		ReadaheadDepth:  s.opt.ReadaheadDepth,
	})
	if err != nil {
		s.writeErr(w, http.StatusBadRequest, CodeBadRequest, "%v", err)
		return
	}
	s.met.observeMulti(time.Since(start), res)
	writeJSON(w, http.StatusOK, MultiResponse{
		Neighbors:   s.neighbors(res.Neighbors),
		Scanned:     res.Scanned,
		Workers:     res.Workers,
		Certified:   res.Certified,
		Interrupted: res.Interrupted,
	})
}

// handleBatch answers one k-NN query per target. With sharedScan the
// whole batch runs as one pass over the signature table (see DESIGN.md
// §4d); without it each target runs as an independent query over a
// worker pool. A request deadline interrupts targets individually —
// finished slots keep their complete answers, later slots return
// Interrupted partials — so the response always carries len(targets)
// results.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if !s.decode(w, r, &req) {
		return
	}
	if len(req.Targets) == 0 {
		s.writeErr(w, http.StatusBadRequest, CodeBadRequest, "batch has no targets")
		return
	}
	f, ok := s.similarity(w, req.F)
	if !ok {
		return
	}
	sortBy, ok := s.sortCriterion(w, req.Sort)
	if !ok {
		return
	}
	targets := make([]sigtable.Transaction, len(req.Targets))
	for i, items := range req.Targets {
		t, ok := s.target(w, items)
		if !ok {
			return
		}
		targets[i] = t
	}
	if req.Parallelism < 0 {
		s.writeErr(w, http.StatusBadRequest, CodeBadRequest, "parallelism %d must be non-negative", req.Parallelism)
		return
	}

	ctx, cancel := s.queryContext(r)
	defer cancel()
	start := time.Now()

	results, err := s.idx.BatchQuery(ctx, targets, f, sigtable.QueryOptions{
		K:               req.K,
		MaxScanFraction: req.MaxScanFraction,
		SortBy:          sortBy,
		ReadaheadDepth:  s.opt.ReadaheadDepth,
	}, sigtable.BatchOptions{
		SharedScan:  req.SharedScan,
		Parallelism: req.Parallelism,
	})
	if err != nil {
		s.writeErr(w, http.StatusBadRequest, CodeBadRequest, "%v", err)
		return
	}
	s.met.observeBatch(time.Since(start), req.SharedScan, results)
	rows := make([]BatchResult, len(results))
	for i, res := range results {
		rows[i] = BatchResult{
			Neighbors:      s.neighbors(res.Neighbors),
			Scanned:        res.Scanned,
			EntriesScanned: res.EntriesScanned,
			EntriesPruned:  res.EntriesPruned,
			PagesRead:      res.PagesRead,
			Certified:      res.Certified,
			Interrupted:    res.Interrupted,
		}
	}
	writeJSON(w, http.StatusOK, BatchResponse{Results: rows, SharedScan: req.SharedScan})
}

func (s *Server) handleInsert(w http.ResponseWriter, r *http.Request) {
	var req InsertRequest
	if !s.decode(w, r, &req) {
		return
	}
	if len(req.Batch) > 0 {
		if len(req.Items) > 0 {
			s.writeErr(w, http.StatusBadRequest, CodeBadRequest, "set either items or batch, not both")
			return
		}
		txns := make([]sigtable.Transaction, len(req.Batch))
		for i, items := range req.Batch {
			t, ok := s.target(w, items)
			if !ok {
				return
			}
			txns[i] = t
		}
		start := time.Now()
		ids := s.idx.InsertBatch(txns)
		s.met.inserts.Add(int64(len(ids)))
		s.met.insertLatency.Observe(time.Since(start).Seconds())
		writeJSON(w, http.StatusOK, InsertResponse{TIDs: ids})
		return
	}
	target, ok := s.target(w, req.Items)
	if !ok {
		return
	}
	start := time.Now()
	id := s.idx.Insert(target)
	s.met.inserts.Inc()
	s.met.insertLatency.Observe(time.Since(start).Seconds())
	writeJSON(w, http.StatusOK, InsertResponse{TID: id})
}

// handleRebuild compacts the index in place. Queries keep running
// against the old snapshot for the whole rebuild; only concurrent
// mutations queue behind the writer mutex, and that window is what the
// sigtable_rebuild_duration_seconds histogram records.
func (s *Server) handleRebuild(w http.ResponseWriter, r *http.Request) {
	var req RebuildRequest
	// An empty body is a rebuild with defaults.
	if r.ContentLength != 0 && !s.decode(w, r, &req) {
		return
	}
	if req.Parallelism < 0 {
		s.writeErr(w, http.StatusBadRequest, CodeBadRequest, "parallelism %d must be non-negative", req.Parallelism)
		return
	}
	par := req.Parallelism
	if par == 0 {
		par = s.opt.BuildParallelism
	}
	start := time.Now()
	if req.Shard != nil {
		sx, ok := s.idx.(*sigtable.ShardedIndex)
		if !ok {
			s.writeErr(w, http.StatusBadRequest, CodeBadRequest, "index is not sharded; omit the shard field")
			return
		}
		if err := sx.CompactShard(*req.Shard, par); err != nil {
			s.writeErr(w, http.StatusBadRequest, CodeBadRequest, "rebuild: %v", err)
			return
		}
	} else if err := s.idx.Compact(par); err != nil {
		s.writeErr(w, http.StatusInternalServerError, CodeBadRequest, "rebuild: %v", err)
		return
	}
	d := time.Since(start)
	s.met.rebuilds.Inc()
	s.met.rebuildLatency.Observe(d.Seconds())
	writeJSON(w, http.StatusOK, RebuildResponse{
		Live:       s.idx.Live(),
		Entries:    s.idx.NumEntries(),
		Workers:    s.idx.BuildStats().Workers,
		DurationMS: float64(d.Nanoseconds()) / 1e6,
		Shard:      req.Shard,
	})
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	var req DeleteRequest
	if !s.decode(w, r, &req) {
		return
	}
	start := time.Now()
	deleted := s.idx.Delete(req.TID)
	if !deleted {
		s.writeErr(w, http.StatusNotFound, CodeNotFound, "tid %d not present or already deleted", req.TID)
		return
	}
	s.met.deletes.Inc()
	s.met.deleteLatency.Observe(time.Since(start).Seconds())
	writeJSON(w, http.StatusOK, DeleteResponse{Deleted: req.TID})
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	var req ExplainRequest
	if !s.decode(w, r, &req) {
		return
	}
	f, ok := s.similarity(w, req.F)
	if !ok {
		return
	}
	target, ok := s.target(w, req.Items)
	if !ok {
		return
	}
	ex := s.idx.Explain(target, f)

	const headLimit = 25
	entries := ex.Entries
	if len(entries) > headLimit {
		entries = entries[:headLimit]
	}
	rows := make([]ExplainEntry, len(entries))
	for i, e := range entries {
		rows[i] = ExplainEntry{
			Coord:      uint64(e.Coord),
			Count:      e.Count,
			MatchOpt:   e.MatchOpt,
			DistOpt:    e.DistOpt,
			Bound:      e.Bound,
			ActiveBits: e.ActiveBits,
			DeltaMatch: e.DeltaMatch,
			DeltaDist:  e.DeltaDist,
		}
	}
	writeJSON(w, http.StatusOK, ExplainResponse{
		TargetCoord:  uint64(ex.TargetCoord),
		Overlaps:     ex.Overlaps,
		BaseMatch:    ex.BaseMatch,
		BaseDist:     ex.BaseDist,
		Entries:      rows,
		TotalEntries: len(ex.Entries),
	})
}
