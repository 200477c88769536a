package sigtable

import (
	"os"
	"path/filepath"
	"sync"
	"testing"

	"sigtable/internal/bitset"
	"sigtable/internal/pager"
	"sigtable/internal/txn"
)

// Page-codec micro-benchmarks: the raw decode and fused decode-and-
// score throughput of the block-compressed (v2) page layout, over the
// standard micro dataset. BenchmarkScanList is the materializing path
// (every record rebuilt as a []txn.Item); BenchmarkFusedScore computes
// match/hamming against a target bitmap while unpacking, with no
// per-record slice. The -disk variants run against a real page file so
// every page fetch is a positional pread. The sub-benchmark names keep
// their "v2" prefix so the archived BENCH_PR*.json series stays
// comparable.

const scanBenchListLen = 512

// scanFixture is one store per backing (memory, file) with the micro
// dataset's 50k transactions written as lists of scanBenchListLen
// records.
type scanFixture struct {
	store *pager.Store
	lists []pager.List
}

var scanBenchOnce sync.Once
var scanBench map[string]*scanFixture

func scanBenchSetup(b *testing.B) map[string]*scanFixture {
	scanBenchOnce.Do(func() {
		m := microSetup(b)
		dir, err := os.MkdirTemp("", "sigtable-scanbench-")
		if err != nil {
			b.Fatal(err)
		}
		scanBench = make(map[string]*scanFixture)
		for _, cfg := range []struct {
			name string
			disk bool
		}{
			{"v2", false},
			{"v2-disk", true},
		} {
			var store *pager.Store
			if cfg.disk {
				store, err = pager.NewFileStore(filepath.Join(dir, cfg.name+".dat"), 4096)
				if err != nil {
					b.Fatal(err)
				}
			} else {
				store = pager.NewStore(4096)
			}
			fix := &scanFixture{store: store}
			n := m.data.Len()
			for lo := 0; lo < n; lo += scanBenchListLen {
				hi := lo + scanBenchListLen
				if hi > n {
					hi = n
				}
				tids := make([]txn.TID, 0, hi-lo)
				txns := make([]txn.Transaction, 0, hi-lo)
				for id := lo; id < hi; id++ {
					tids = append(tids, txn.TID(id))
					txns = append(txns, m.data.Get(txn.TID(id)))
				}
				l, err := store.WriteList(tids, txns)
				if err != nil {
					b.Fatal(err)
				}
				fix.lists = append(fix.lists, l)
			}
			store.Seal()
			scanBench[cfg.name] = fix
		}
	})
	return scanBench
}

// BenchmarkScanList decodes every list in the store through the
// materializing ScanList path. One iteration = one full pass over the
// 50k-transaction dataset.
func BenchmarkScanList(b *testing.B) {
	fixtures := scanBenchSetup(b)
	for _, name := range []string{"v2", "v2-disk"} {
		fix := fixtures[name]
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sum := 0
				for _, l := range fix.lists {
					err := fix.store.ScanList(l, nil, func(id txn.TID, t txn.Transaction) bool {
						sum += len(t)
						return true
					})
					if err != nil {
						b.Fatal(err)
					}
				}
				if sum == 0 {
					b.Fatal("scanned nothing")
				}
			}
		})
	}
}

// BenchmarkFusedScore runs the fused decode-and-score kernel over
// every list: match and hamming against a pooled target bitmap,
// computed while unpacking. One iteration = one full scoring pass.
func BenchmarkFusedScore(b *testing.B) {
	fixtures := scanBenchSetup(b)
	m := microSetup(b)
	mask := bitset.New(m.data.UniverseSize())
	target := m.queries[0]
	target.SetBits(mask)
	defer target.ClearBits(mask)
	for _, name := range []string{"v2", "v2-disk"} {
		fix := fixtures[name]
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				acc := 0
				for _, l := range fix.lists {
					err := fix.store.ScanListStats(l, nil, mask, len(target), func(id txn.TID, match, hamming int) bool {
						acc += match - hamming
						return true
					})
					if err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
