package pager

import (
	"context"
	"sync"
	"sync/atomic"
)

// Prefetch tuning. The ring bounds how much future the engines can
// queue (overflow is dropped, never blocked on — a slow disk must not
// stall the scoring path); the recent set bounds hit/waste attribution
// state; the depth limits bound the adaptive controller.
const (
	prefetchRing   = 256  // queued requests before Request starts dropping
	prefetchRecent = 4096 // prefetched pages remembered for hit attribution

	minReadahead     = 1
	maxReadahead     = 64
	defaultReadahead = 8

	// adaptEvery is how many issued pages pass between depth
	// adjustments; the window smooths the hit/waste signal.
	adaptEvery = 512
)

// Prefetcher overlaps disk I/O with scoring: the branch-and-bound
// engines know which entry lists they will scan next (their ranked
// queues say so), and feed those lists' pages here before decoding the
// current one. Worker goroutines pull requests from a bounded ring,
// drop the pages that are already pool-resident or in flight, fetch
// the rest with coalesced backend reads and admit them to the buffer
// pool, where the scan's own read path finds them.
//
// Three invariants keep the pipeline an invisible optimization:
//
//   - Dedup: a page is fetched at most once concurrently (the inflight
//     set), and never re-fetched while pool-resident.
//   - Write-once pages: a mutation writes fresh pages and evicts only
//     the mutated list's decode (Store.InvalidateList), so a fetched
//     page can never go stale and a request needs no generation check.
//   - Accounting isolation: prefetch fetches count only BackendReads
//     (and CoalescedReads/ReadRunPages) — never Reads, Misses,
//     BytesRead or a query's PagesRead, which keep describing what the
//     scans themselves consumed. Query results and their I/O
//     attribution are byte-identical with the prefetcher on or off.
type Prefetcher struct {
	s       *Store
	workers int
	reqs    chan []PageID
	quit    chan struct{}
	wg      sync.WaitGroup
	once    sync.Once

	issued  atomic.Int64
	hits    atomic.Int64
	wasted  atomic.Int64
	dropped atomic.Int64

	depth      atomic.Int64
	adaptMark  atomic.Int64
	lastHits   atomic.Int64
	lastWasted atomic.Int64

	mu       sync.Mutex
	inflight map[PageID]struct{}
	recent   map[PageID]struct{}
	recentQ  []PageID // FIFO ring over recent, bounded by prefetchRecent
	recentHd int
	recentN  atomic.Int64 // len(recent); lock-free fast path for notePoolHit
}

// PrefetchStats is a snapshot of the pipeline's counters.
type PrefetchStats struct {
	// Workers is the number of fetch goroutines; Depth the current
	// adaptive readahead depth in ranked entries.
	Workers int
	Depth   int
	// Issued counts pages fetched and admitted to the pool. Hits are
	// issued pages a scan later consumed from the pool; Wasted are
	// issued pages evicted from attribution unconsumed (FIFO
	// overflow). Dropped counts requested pages discarded before any
	// I/O completed for them — ring overflow or a racing store close.
	Issued  int64
	Hits    int64
	Wasted  int64
	Dropped int64
}

// AttachPrefetcher starts a prefetch pipeline with the given worker
// count. It requires an attached buffer pool — prefetched pages live
// there — and is a no-op without one or with workers <= 0. Like
// AttachPool, it must not race with reads; attach at build/load time.
func (s *Store) AttachPrefetcher(workers int) {
	if workers <= 0 || s.pool == nil {
		return
	}
	s.StopPrefetcher()
	p := &Prefetcher{
		s:        s,
		workers:  workers,
		reqs:     make(chan []PageID, prefetchRing),
		quit:     make(chan struct{}),
		inflight: make(map[PageID]struct{}),
		recent:   make(map[PageID]struct{}),
		recentQ:  make([]PageID, 0, prefetchRecent),
	}
	p.depth.Store(defaultReadahead)
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	s.prefetch.Store(p)
}

// Prefetcher returns the attached prefetch pipeline, or nil.
func (s *Store) Prefetcher() *Prefetcher { return s.prefetch.Load() }

// StopPrefetcher detaches the prefetch pipeline and waits for its
// workers to exit. Safe to call repeatedly and on stores that never
// had one; queries racing the stop simply issue their own reads.
func (s *Store) StopPrefetcher() {
	if p := s.prefetch.Swap(nil); p != nil {
		p.stop()
	}
}

// notePoolHit attributes a buffer-pool hit to the prefetcher when the
// page was recently prefetched — the "hit" half of the feedback signal
// the adaptive depth controller consumes.
func (s *Store) notePoolHit(id PageID) {
	if p := s.prefetch.Load(); p != nil {
		p.notePoolHit(id)
	}
}

func (p *Prefetcher) stop() {
	p.once.Do(func() {
		close(p.quit)
		p.wg.Wait()
	})
}

// Request enqueues pages for background fetch. The caller passes
// ownership of the slice. Never blocks: when the ring is full the
// request is dropped and counted — prefetch is an optimization, and
// backpressure on the scoring path would invert the optimization.
//
// The context gates enqueue only: a request from an already-cancelled
// search is refused, but once accepted the fetch is owned by the store
// — the buffer pool it warms is shared by every query, so pages keep
// their value even when the requesting search finishes (or is
// cancelled) before the workers get to them. Queries far faster than
// the pipeline's latency thereby warm the pool for their successors
// instead of having their requests retroactively voided.
func (p *Prefetcher) Request(ctx context.Context, pages []PageID) {
	if len(pages) == 0 || ctx.Err() != nil {
		return
	}
	select {
	case p.reqs <- pages:
	default:
		p.dropped.Add(int64(len(pages)))
	}
}

// Readahead resolves a per-query depth request against the pipeline:
// negative disables prefetch for the query (0 returned), zero selects
// the adaptive depth, positive is clamped to the maximum.
func (p *Prefetcher) Readahead(requested int) int {
	switch {
	case requested < 0:
		return 0
	case requested == 0:
		return int(p.depth.Load())
	case requested > maxReadahead:
		return maxReadahead
	default:
		return requested
	}
}

// Workers reports the fetch goroutine count.
func (p *Prefetcher) Workers() int { return p.workers }

// Depth reports the current adaptive readahead depth.
func (p *Prefetcher) Depth() int { return int(p.depth.Load()) }

// Stats snapshots the pipeline counters.
func (p *Prefetcher) Stats() PrefetchStats {
	return PrefetchStats{
		Workers: p.workers,
		Depth:   int(p.depth.Load()),
		Issued:  p.issued.Load(),
		Hits:    p.hits.Load(),
		Wasted:  p.wasted.Load(),
		Dropped: p.dropped.Load(),
	}
}

func (p *Prefetcher) worker() {
	defer p.wg.Done()
	for {
		select {
		case <-p.quit:
			return
		case pages := <-p.reqs:
			p.serve(pages)
		}
	}
}

func (p *Prefetcher) serve(pages []PageID) {
	// Claim what still needs fetching: skip pages another worker is
	// already on and pages the pool holds.
	pool := p.s.pool
	claimed := make([]PageID, 0, len(pages))
	p.mu.Lock()
	for _, id := range pages {
		if _, busy := p.inflight[id]; busy {
			continue
		}
		if pool.Contains(id) {
			continue
		}
		p.inflight[id] = struct{}{}
		claimed = append(claimed, id)
	}
	p.mu.Unlock()
	if len(claimed) == 0 {
		return
	}
	defer func() {
		p.mu.Lock()
		for _, id := range claimed {
			delete(p.inflight, id)
		}
		p.mu.Unlock()
	}()
	// Fetch in coalesced runs of consecutive PageIDs.
	for i := 0; i < len(claimed); {
		n := 1
		for i+n < len(claimed) && n < maxReadRun && claimed[i+n] == claimed[i]+PageID(n) {
			n++
		}
		run, err := p.s.back.readPages(claimed[i], n)
		if err != nil {
			// The store is closing or the request was bogus; prefetch
			// never surfaces errors, the scan's own read will.
			p.dropped.Add(int64(len(claimed) - i))
			return
		}
		p.s.backendReads.Add(1)
		if n > 1 {
			p.s.coalescedReads.Add(1)
			p.s.readRunPages.Add(int64(n))
		}
		p.mu.Lock()
		for j := 0; j < n; j++ {
			pool.Put(claimed[i+j], run[j])
			p.noteIssuedLocked(claimed[i+j])
		}
		p.mu.Unlock()
		p.issued.Add(int64(n))
		i += n
	}
	p.maybeAdapt()
}

// noteIssuedLocked records an issued page in the recent set, evicting
// the oldest attribution as wasted when the FIFO is full. Caller holds
// p.mu.
func (p *Prefetcher) noteIssuedLocked(id PageID) {
	if _, ok := p.recent[id]; ok {
		return
	}
	if len(p.recentQ) >= prefetchRecent {
		// The slot at the head is the oldest attribution: overwrite it
		// with the newest and advance.
		old := p.recentQ[p.recentHd]
		p.recentQ[p.recentHd] = id
		p.recentHd = (p.recentHd + 1) % len(p.recentQ)
		if _, live := p.recent[old]; live {
			delete(p.recent, old)
			p.wasted.Add(1)
		}
	} else {
		p.recentQ = append(p.recentQ, id)
	}
	p.recent[id] = struct{}{}
	p.recentN.Store(int64(len(p.recent)))
}

func (p *Prefetcher) notePoolHit(id PageID) {
	if p.recentN.Load() == 0 {
		return
	}
	p.mu.Lock()
	if _, ok := p.recent[id]; ok {
		delete(p.recent, id)
		p.recentN.Store(int64(len(p.recent)))
		p.hits.Add(1)
	}
	p.mu.Unlock()
}

// maybeAdapt adjusts the readahead depth from the hit/waste signal of
// the last window: mostly-wasted prefetches halve the depth (we are
// reading future the engines never reach — pruning is winning),
// strongly-consumed ones double it, within [minReadahead,
// maxReadahead]. One worker wins the CAS per window; the rest skip.
func (p *Prefetcher) maybeAdapt() {
	iss := p.issued.Load()
	mark := p.adaptMark.Load()
	if iss-mark < adaptEvery || !p.adaptMark.CompareAndSwap(mark, iss) {
		return
	}
	h := p.hits.Load()
	w := p.wasted.Load()
	dh := h - p.lastHits.Swap(h)
	dw := w - p.lastWasted.Swap(w)
	d := p.depth.Load()
	switch {
	case dw > dh && d > minReadahead:
		p.depth.Store(d / 2)
	case dh > 4*dw && d < maxReadahead:
		p.depth.Store(d * 2)
	}
}
