package pager

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// BufferPool is a fixed-capacity page cache. The signature table's
// hot entries (those rarely pruned) stay resident across queries, as a
// real database buffer pool would keep them. All methods are safe for
// concurrent use.
//
// Internally the pool is split into S lock-sharded clock-sweep
// segments (shard chosen by PageID), the standard fix for the
// single-global-LRU-mutex bottleneck once many query workers hit the
// cache at once: each shard has its own mutex, frame array and clock
// hand, so concurrent Gets on different shards never contend. Pages
// enter a shard with their reference bit clear and earn it on the
// first re-reference, which keeps one-shot scans from flushing the
// re-used working set (second-chance replacement, scan-resistant
// flavor).
type BufferPool struct {
	shards []poolShard
	mask   uint32 // len(shards)-1; shard count is a power of two
}

// poolShard is one independently locked clock segment.
type poolShard struct {
	mu       sync.Mutex
	capacity int
	frames   []frame
	index    map[PageID]int
	hand     int

	hits      atomic.Int64
	misses    atomic.Int64
	contended atomic.Int64 // lock acquisitions that had to wait
}

type frame struct {
	id   PageID
	data []byte
	ref  bool
}

// ShardStats is one shard's cumulative counters, for contention
// monitoring.
type ShardStats struct {
	Hits      int64
	Misses    int64
	Contended int64 // Get/Put calls that found the shard lock held
	Resident  int   // pages currently cached in the shard
}

// NewBufferPool creates a pool holding at most capacity pages, sharded
// across min(capacity, ~2×GOMAXPROCS) clock segments.
func NewBufferPool(capacity int) *BufferPool {
	return NewBufferPoolShards(capacity, 0)
}

// NewBufferPoolShards creates a pool with an explicit shard count
// (rounded down to a power of two, clamped to [1, capacity]). A shard
// count of 0 picks a default from GOMAXPROCS.
func NewBufferPoolShards(capacity, shards int) *BufferPool {
	if capacity <= 0 {
		panic("pager.NewBufferPool: capacity must be positive")
	}
	if shards <= 0 {
		shards = 2 * runtime.GOMAXPROCS(0)
		if shards > 64 {
			shards = 64
		}
	}
	if shards > capacity {
		shards = capacity
	}
	// Round down to a power of two so shard selection is a mask.
	s := 1
	for s*2 <= shards {
		s *= 2
	}
	p := &BufferPool{shards: make([]poolShard, s), mask: uint32(s - 1)}
	// Distribute capacity; every shard holds at least one page.
	base, extra := capacity/s, capacity%s
	for i := range p.shards {
		c := base
		if i < extra {
			c++
		}
		p.shards[i] = poolShard{capacity: c, index: make(map[PageID]int, c)}
	}
	return p
}

// Shards reports the number of lock shards.
func (p *BufferPool) Shards() int { return len(p.shards) }

// Capacity reports the maximum resident pages across all shards.
func (p *BufferPool) Capacity() int {
	n := 0
	for i := range p.shards {
		n += p.shards[i].capacity
	}
	return n
}

func (p *BufferPool) shard(id PageID) *poolShard {
	// Entry page lists are contiguous ID ranges, so plain masking
	// spreads one entry's pages round-robin across the shards.
	return &p.shards[uint32(id)&p.mask]
}

// lock acquires the shard mutex, counting acquisitions that found it
// already held — the contention signal sigtable_pool_contention_total
// exports.
func (s *poolShard) lock() {
	if s.mu.TryLock() {
		return
	}
	s.contended.Add(1)
	s.mu.Lock()
}

// Contains reports whether a page is resident without touching its
// clock reference bit or the hit/miss counters — the coalescing read
// path probes residency to decide where a run must stop, and those
// probes must not distort either the eviction order or the hit-rate
// metrics.
func (p *BufferPool) Contains(id PageID) bool {
	s := p.shard(id)
	s.lock()
	_, ok := s.index[id]
	s.mu.Unlock()
	return ok
}

// Get returns the cached page payload and whether it was present.
func (p *BufferPool) Get(id PageID) ([]byte, bool) {
	s := p.shard(id)
	s.lock()
	i, ok := s.index[id]
	if !ok {
		s.mu.Unlock()
		s.misses.Add(1)
		return nil, false
	}
	s.frames[i].ref = true
	data := s.frames[i].data
	s.mu.Unlock()
	s.hits.Add(1)
	return data, true
}

// Put inserts a page, evicting a clock-sweep victim from the page's
// shard if that shard is full.
func (p *BufferPool) Put(id PageID, data []byte) {
	s := p.shard(id)
	s.lock()
	defer s.mu.Unlock()
	if i, ok := s.index[id]; ok {
		s.frames[i].data = data
		s.frames[i].ref = true
		return
	}
	if len(s.frames) < s.capacity {
		s.index[id] = len(s.frames)
		s.frames = append(s.frames, frame{id: id, data: data})
		return
	}
	// Clock sweep: clear reference bits until an unreferenced frame
	// comes around, then reuse it.
	for {
		f := &s.frames[s.hand]
		if !f.ref {
			delete(s.index, f.id)
			s.index[id] = s.hand
			*f = frame{id: id, data: data}
			s.hand = (s.hand + 1) % len(s.frames)
			return
		}
		f.ref = false
		s.hand = (s.hand + 1) % len(s.frames)
	}
}

// Len reports the number of resident pages.
func (p *BufferPool) Len() int {
	n := 0
	for i := range p.shards {
		s := &p.shards[i]
		s.lock()
		n += len(s.frames)
		s.mu.Unlock()
	}
	return n
}

// Stats reports the cumulative Get hits and misses across all shards,
// the raw counts behind HitRate — the shape a monitoring counter
// wants.
func (p *BufferPool) Stats() (hits, misses int64) {
	for i := range p.shards {
		hits += p.shards[i].hits.Load()
		misses += p.shards[i].misses.Load()
	}
	return hits, misses
}

// Contention reports the total number of Get/Put calls that found
// their shard lock held by another goroutine — the number to watch
// when deciding whether the pool needs more shards.
func (p *BufferPool) Contention() int64 {
	var n int64
	for i := range p.shards {
		n += p.shards[i].contended.Load()
	}
	return n
}

// ShardStats returns a per-shard counter snapshot in shard order.
func (p *BufferPool) ShardStats() []ShardStats {
	out := make([]ShardStats, len(p.shards))
	for i := range p.shards {
		s := &p.shards[i]
		s.lock()
		resident := len(s.frames)
		s.mu.Unlock()
		out[i] = ShardStats{
			Hits:      s.hits.Load(),
			Misses:    s.misses.Load(),
			Contended: s.contended.Load(),
			Resident:  resident,
		}
	}
	return out
}

// HitRate reports the fraction of Gets served from the pool (0 if no
// Gets yet).
func (p *BufferPool) HitRate() float64 {
	hits, misses := p.Stats()
	total := hits + misses
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}
