package pager

// Prefetcher is a stub kept only for the benchmark harness, which
// compiles against Store.Prefetcher and reports its counters. Stores
// have no prefetch pipeline: every disk read is done by the scan that
// consumes the page, through the coalesced run reader.
type Prefetcher struct{}

// PrefetchStats is the stub's counter snapshot; every field is zero.
type PrefetchStats struct {
	Issued, Hits, Wasted int64
}

// Prefetcher always returns nil.
func (s *Store) Prefetcher() *Prefetcher { return nil }

// Stats returns zeros, including on a nil receiver.
func (p *Prefetcher) Stats() PrefetchStats { return PrefetchStats{} }
