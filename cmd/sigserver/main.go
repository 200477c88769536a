// Command sigserver serves similarity queries over a dataset through
// a versioned HTTP JSON API.
//
//	sigserver -data baskets.dat [-addr :8080] [-K 15] [-r 1]
//	          [-query-timeout 5s] [-max-concurrent 0]
//	          [-build-parallelism 0] [-page-size 0] [-page-file ""]
//	          [-page-format v2] [-pool-pages 0]
//	          [-decode-cache-bytes 0] [-prefetch-workers 0]
//	          [-readahead 0] [-shards 1]
//
// With -page-size, -page-format selects the on-page encoding: "v2"
// (the default) block-compresses records into shared-page frames, "v1"
// keeps the original one-list-per-page-chain varint layout. Queries
// answer identically under both.
//
// With -pool-pages, -prefetch-workers attaches the async prefetch
// pipeline: worker goroutines that pull upcoming ranked entries'
// pages into the buffer pool ahead of each query's scan (0 auto-sizes
// to 2 workers when -page-file is set, off otherwise; negative
// disables). -readahead sets the per-search depth in ranked entries
// (0 = adaptive). Results are identical with and without prefetch.
//
// With -shards N > 1 the server runs the sharded engine: transactions
// are partitioned across N sub-indexes, queries scatter-gather across
// them (results are byte-identical to the single index), and inserts
// or per-shard rebuilds lock only their shard. /v1/stats gains a
// per-shard section and /v1/metrics the sigtable_shard_* family.
//
// Endpoints (see internal/server for bodies):
//
//	GET  /v1/stats /v1/metrics
//	POST /v1/query /v1/range /v1/multi /v1/batch /v1/insert /v1/delete /v1/explain /v1/rebuild
//	GET  /debug/pprof/...
//
// The unversioned routes (/stats, /query, ...) answer 410 Gone with a
// Link to their /v1 successor. Example:
//
//	curl -s localhost:8080/v1/query -d '{"items":[3,17,42],"f":"cosine","k":5}'
//
// The server shuts down gracefully on SIGINT/SIGTERM, draining
// in-flight requests for up to -drain-timeout.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"sigtable"
	"sigtable/internal/server"
)

func main() {
	var (
		dataPath      = flag.String("data", "", "dataset file (binary or FIMI)")
		addr          = flag.String("addr", ":8080", "listen address")
		kCard         = flag.Int("K", 15, "signature cardinality")
		r             = flag.Int("r", 1, "activation threshold")
		queryTimeout  = flag.Duration("query-timeout", 5*time.Second, "per-query search deadline (0 disables)")
		maxConcurrent = flag.Int("max-concurrent", 0, "max in-flight requests (0 = 4×GOMAXPROCS)")
		queryPar      = flag.Int("query-parallelism", 1, "/v1/range partitioning goroutines when the request does not choose (1 = serial); k-NN searches always run serially")
		buildPar      = flag.Int("build-parallelism", 0, "index build/rebuild workers (0 = GOMAXPROCS, 1 = serial)")
		pageSize      = flag.Int("page-size", 0, "store transaction lists on simulated disk pages of this many bytes (0 = in memory)")
		pageFile      = flag.String("page-file", "", "back the page store with a real file at this path (needs -page-size)")
		pageFormat    = flag.String("page-format", "v2", "on-page encoding with -page-size: v2 (block-compressed) or v1 (legacy varint chains)")
		poolPages     = flag.Int("pool-pages", 0, "sharded clock buffer pool capacity in pages (needs -page-size)")
		decodeCache   = flag.Int64("decode-cache-bytes", 0, "hot-entry decoded-list cache budget in bytes (needs -page-size, 0 disables)")
		prefetchW     = flag.Int("prefetch-workers", 0, "async prefetch worker goroutines per store (needs -pool-pages; 0 = auto: 2 with -page-file, off otherwise; negative disables)")
		readahead     = flag.Int("readahead", 0, "ranked entries offered ahead to the prefetch pipeline per search (0 = adaptive, negative disables)")
		shards        = flag.Int("shards", 1, "shard the index across this many sub-indexes (1 = single table)")
		drainTimeout  = flag.Duration("drain-timeout", 10*time.Second, "shutdown grace period for in-flight requests")
		quiet         = flag.Bool("quiet", false, "disable per-request access logging")
	)
	flag.Parse()
	if *dataPath == "" {
		flag.Usage()
		os.Exit(2)
	}

	f, err := os.Open(*dataPath)
	if err != nil {
		log.Fatalf("sigserver: %v", err)
	}
	data, err := sigtable.ReadDataset(f)
	if err != nil {
		if _, serr := f.Seek(0, 0); serr == nil {
			data, err = sigtable.ReadFIMI(f, 0)
		}
	}
	f.Close()
	if err != nil {
		log.Fatalf("sigserver: reading %s: %v", *dataPath, err)
	}

	var pf sigtable.PageFormat
	switch *pageFormat {
	case "", "v2":
		pf = sigtable.PageFormatV2
	case "v1":
		pf = sigtable.PageFormatV1
	default:
		log.Fatalf("sigserver: unknown -page-format %q (want v1 or v2)", *pageFormat)
	}

	start := time.Now()
	iopt := sigtable.IndexOptions{
		SignatureCardinality: *kCard,
		ActivationThreshold:  *r,
		PageSize:             *pageSize,
		PageFile:             *pageFile,
		PageFormat:           pf,
		BufferPoolPages:      *poolPages,
		DecodeCacheBytes:     *decodeCache,
		PrefetchWorkers:      *prefetchW,
		BuildParallelism:     *buildPar,
		Shards:               *shards,
	}
	var idx sigtable.Engine
	var err2 error
	engine := "single table"
	if *shards > 1 {
		idx, err2 = sigtable.NewSharded(data, iopt)
		engine = fmt.Sprintf("%d shards", *shards)
	} else {
		iopt.Shards = 0
		idx, err2 = sigtable.BuildIndex(data, iopt)
	}
	if err2 != nil {
		log.Fatalf("sigserver: building index: %v", err2)
	}
	log.Printf("sigserver: indexed %d transactions (K=%d, %d entries, %s, %d build workers) in %v; listening on %s",
		idx.Len(), idx.K(), idx.NumEntries(), engine, idx.BuildStats().Workers,
		time.Since(start).Round(time.Millisecond), *addr)

	defer idx.Close()

	opts := server.Options{
		QueryTimeout:     *queryTimeout,
		MaxConcurrent:    *maxConcurrent,
		QueryParallelism: *queryPar,
		BuildParallelism: *buildPar,
		ReadaheadDepth:   *readahead,
	}
	if !*quiet {
		opts.Logger = log.Default()
	}
	srv := server.New(idx, data, opts)

	// WriteTimeout must outlast the search deadline, or the connection
	// is torn down before the partial result can be written.
	writeTimeout := 30 * time.Second
	if *queryTimeout > 0 && *queryTimeout+10*time.Second > writeTimeout {
		writeTimeout = *queryTimeout + 10*time.Second
	}
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       120 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()

	select {
	case err := <-errCh:
		log.Fatalf("sigserver: %v", err)
	case <-ctx.Done():
		stop() // restore default signal handling: a second ^C kills immediately
		log.Printf("sigserver: shutting down, draining for up to %v", *drainTimeout)
		drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := httpSrv.Shutdown(drainCtx); err != nil {
			log.Printf("sigserver: forced shutdown: %v", err)
		}
		if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("sigserver: %v", err)
		}
	}
}
