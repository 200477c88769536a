# Developer entry points. `make check` is the default verify flow:
# vet plus the full suite under the race detector (the server and
# batch paths are concurrent; -race is load-bearing, not optional).

GO ?= go

.PHONY: build test vet race race-core race-directory race-snapshot race-shard check perfbench-check bench bench-build bench-all docs-check staticcheck

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# The packages with genuinely concurrent internals — the pager's staged
# writers, sharded pool and concurrent coalesced reads, the parallel
# build, the parallel range scan, the shared-scan batch's scoring
# fan-out and concurrent queries sharing pooled scratch, the parallel
# support counter — get a dedicated race pass so a failure names the layer
# directly instead of drowning in the full-suite run.
race-core:
	$(GO) test -race ./internal/pager ./internal/core ./internal/mining

# The entry directory's dedicated hammer: concurrent queries against
# Insert/InsertBatch/Delete/Compact on both engines, plus the
# incremental-vs-rebuild property tests, under the race detector —
# the focused signal for the signature-major bitmap update path.
race-directory:
	$(GO) test -race -run 'Directory' ./internal/core ./internal/shard .

# The snapshot engine's dedicated hammer: lock-free queries pinning
# published snapshots race Insert/Delete (with threshold-triggered
# overflow flushes), Compact and Close on both engines, plus the
# capture-and-replay byte-identity property tests, under the race
# detector — the focused signal for the snapshot publication protocol.
# 'Hammer' adds the disk hammer (TestPrefetchHammer): the same races on
# a file-backed store whose small buffer pool keeps evicting pages
# under concurrent coalesced scans.
race-snapshot:
	$(GO) test -race -run 'Snapshot|MutationDoesNotBlock|Hammer' ./internal/core ./internal/shard .

# The sharded engine's dedicated pass: the scatter workers, their
# per-entry buffer rings and the coordinator's merge of their ranked
# streams, plus the public sharded identity tests, under the race
# detector — the focused signal for the scatter-gather path.
race-shard:
	$(GO) test -race ./internal/shard
	$(GO) test -race -run 'Shard' .

check: vet staticcheck docs-check perfbench-check race-core race-directory race-snapshot race-shard race

# perfbench is its own module (it replaces sigtable with ../), so
# `go build ./...` and `go vet ./...` never compile it. This target
# builds, vets and unit-tests it, catching a change to an identifier
# the benchmark harness still names before the benchmark run does.
perfbench-check:
	cd perfbench && $(GO) vet . && $(GO) test .

# staticcheck runs when the binary is on PATH (CI installs it); locally
# it degrades to a skip notice rather than demanding an install.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck: not installed, skipping (CI runs it)"; \
	fi

# Machine-readable micro-benchmarks (the numbers BENCH_PR<n>.json
# archives): per-query latency/allocations, the sharded engine's
# scatter-gather at 1/4/8 shards (memory and disk), independent vs
# shared-scan batches, the page-codec scan and fused-score kernels
# (memory and file-backed pages), the build pipeline serial vs parallel, support counting, the
# buffer-pool hammer, and the mixed read/write workload under snapshot
# publication (query-ns/op and decode-cache hit rate under 1% writes).
# delta_vs ratios compare each shared benchmark against the newest
# BENCH_PR*.json baseline; with no baseline on disk the flag is omitted
# and the report carries absolute numbers. The report goes to a new
# file, bench-<timestamp>.json unless BENCH_OUT names one (archive a
# change's numbers with BENCH_OUT=BENCH_PR<n>.json); an existing file
# is never overwritten.
ifndef BENCH_OUT
BENCH_OUT := bench-$(shell date +%Y%m%d-%H%M%S).json
endif
BENCH_BASE := $(shell ls BENCH_PR*.json 2>/dev/null | grep -v '^$(BENCH_OUT)$$' | sort -V | tail -1)
bench:
	@if [ -e '$(BENCH_OUT)' ]; then echo "bench: $(BENCH_OUT) exists; set BENCH_OUT to a new file" >&2; exit 1; fi
	$(GO) test -run - -bench 'BenchmarkQuery|BenchmarkShardedQuery|BenchmarkBatchQuery|BenchmarkScanList|BenchmarkFusedScore|BenchmarkBuildIndex|BenchmarkSupportCount|BenchmarkPoolHammer|BenchmarkEntryRanking|BenchmarkMixedWorkload' -benchmem . ./internal/core | $(GO) run ./cmd/benchjson $(if $(BENCH_BASE),-delta-vs $(BENCH_BASE)) > $(BENCH_OUT)
	@cat $(BENCH_OUT)

# Every exported *Options / *Config struct in the public package must
# be discussed in doc.go — the package documentation is the API's
# migration guide, and a struct it never mentions is an undocumented
# surface. CI runs this.
docs-check:
	@missing=0; \
	for s in $$(grep -hoE '^type [A-Za-z]+(Options|Config) struct' *.go | awk '{print $$2}' | sort -u); do \
		grep -q "$$s" doc.go || { echo "doc.go does not mention $$s"; missing=1; }; \
	done; \
	exit $$missing

# Just the build-pipeline benchmarks (serial vs parallel, memory vs
# disk) — the quick loop when touching the build path.
bench-build:
	$(GO) test -run - -bench 'BenchmarkBuildIndex|BenchmarkSupportCount' -benchmem .

# The full harness: every figure, table and ablation plus the micros.
bench-all:
	$(GO) test -bench=. -benchmem
