package pager

import (
	"runtime"
	"sync"
	"sync/atomic"

	"sigtable/internal/txn"
)

// DecodeCache memoizes the fully decoded form of hot entry lists — the
// []TID / []Transaction a ScanList produces — so repeat scans of the
// same list skip both the page fetches and the varint decoding. Under
// the skewed access patterns the signature table serves (a few hub
// entries absorb most branch-and-bound visits), the decode cost of
// those entries dominates the read path; the buffer pool removes the
// simulated I/O but still re-decodes every record on every scan.
//
// Keys are (list key, generation). The list key packs the list's
// first PageID with its start offset (listKey in pager.go): lists
// opening on a shared page are told apart by the offset. The
// generation is a cache-wide counter bumped by Invalidate: mutations
// above the pager (Insert, Delete, Compact, Rebuild) bump it, making
// every cached decode unreachable at once in O(1). Page payloads are
// write-once, so today's bumps are strictly conservative — a cached
// decode of immutable pages cannot go stale — but the protocol makes
// staleness impossible by construction rather than by a global
// immutability argument, and stays correct if a future layer ever
// rewrites a list's pages in place (overflow flushing, in-place
// compaction). Stale generations age out through the byte budget.
//
// The cache is sharded like the buffer pool: shard = first PageID
// (the high half of the key) & mask, each shard its own mutex, LRU
// list and byte budget, so concurrent scans of different hot entries
// never contend.
//
// Cached slices are shared by every scan that hits: callers may retain
// the transactions but must never modify them (ScanList documents the
// same contract).
type DecodeCache struct {
	shards   []decodeShard
	mask     uint32
	capBytes int64 // configured budget, as given to NewDecodeCache
	gen      atomic.Uint64

	hits   atomic.Int64
	misses atomic.Int64
	bytes  atomic.Int64 // decoded payload bytes currently resident

	listInvs   atomic.Uint64 // InvalidateList calls (per-list scope)
	globalInvs atomic.Uint64 // Invalidate calls (global scope)
}

// decodeShard is one independently locked LRU segment. Entries hang off
// a map and an intrusive doubly-linked recency list; the byte budget is
// enforced per shard so eviction never crosses a lock.
type decodeShard struct {
	mu       sync.Mutex
	maxBytes int64
	bytes    int64
	index    map[uint64]*decodedList
	head     *decodedList // most recently used
	tail     *decodedList // least recently used
}

// decodedList is one cached decode: the list's records in page order,
// before any tombstone filtering (that happens above the pager).
type decodedList struct {
	key  uint64
	gen  uint64
	ids  []txn.TID
	txns []txn.Transaction
	size int64 // accounted bytes

	prev, next *decodedList
}

// NewDecodeCache creates a cache bounded by maxBytes of decoded
// payload, sharded across min(~2×GOMAXPROCS, 16) segments.
func NewDecodeCache(maxBytes int64) *DecodeCache {
	if maxBytes <= 0 {
		panic("pager.NewDecodeCache: maxBytes must be positive")
	}
	shards := 2 * runtime.GOMAXPROCS(0)
	if shards > 16 {
		shards = 16
	}
	s := 1
	for s*2 <= shards {
		s *= 2
	}
	c := &DecodeCache{shards: make([]decodeShard, s), mask: uint32(s - 1), capBytes: maxBytes}
	base := maxBytes / int64(s)
	if base < 1 {
		base = 1
	}
	for i := range c.shards {
		c.shards[i] = decodeShard{maxBytes: base, index: make(map[uint64]*decodedList)}
	}
	return c
}

func (c *DecodeCache) shard(key uint64) *decodeShard {
	return &c.shards[uint32(key>>32)&c.mask]
}

// Invalidate bumps the generation, atomically orphaning every cached
// decode: subsequent lookups miss and the stale entries are dropped on
// first touch or by eviction pressure.
func (c *DecodeCache) Invalidate() {
	c.gen.Add(1)
	c.globalInvs.Add(1)
}

// InvalidateList evicts the single cached decode identified by key (the
// pager's listKey), leaving every other resident decode — and the
// generation — untouched. It is the fine-grained alternative to
// Invalidate for mutations whose blast radius is one entry's list: the
// other entries stay warm. A key with no resident decode is a no-op but
// still counts as a per-list invalidation.
func (c *DecodeCache) InvalidateList(key uint64) {
	s := c.shard(key)
	s.mu.Lock()
	if d, ok := s.index[key]; ok {
		s.remove(d, c)
	}
	s.mu.Unlock()
	c.listInvs.Add(1)
}

// Generation reports the current generation (diagnostics).
func (c *DecodeCache) Generation() uint64 { return c.gen.Load() }

// Invalidations reports the cumulative invalidation counts by scope:
// per-list (InvalidateList) and global (Invalidate generation bumps).
func (c *DecodeCache) Invalidations() (list, global uint64) {
	return c.listInvs.Load(), c.globalInvs.Load()
}

// Stats reports cumulative lookup hits and misses.
func (c *DecodeCache) Stats() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}

// HitRate reports the fraction of lookups served from the cache (0
// before any lookup).
func (c *DecodeCache) HitRate() float64 {
	hits, misses := c.Stats()
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// Bytes reports the decoded payload bytes currently resident (stale
// generations included until evicted).
func (c *DecodeCache) Bytes() int64 { return c.bytes.Load() }

// Capacity reports the configured byte budget. The per-shard budgets it
// divides into round down, so resident bytes never exceed it.
func (c *DecodeCache) Capacity() int64 { return c.capBytes }

// Len reports the number of cached lists (stale generations included
// until evicted).
func (c *DecodeCache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.index)
		s.mu.Unlock()
	}
	return n
}

// get returns the cached decode of the list identified by key, if it
// is resident under the current generation. A resident entry from an
// older generation is removed on the spot.
func (c *DecodeCache) get(key uint64) (*decodedList, bool) {
	gen := c.gen.Load()
	s := c.shard(key)
	s.mu.Lock()
	d, ok := s.index[key]
	if ok && d.gen != gen {
		s.remove(d, c)
		ok = false
	}
	if !ok {
		s.mu.Unlock()
		c.misses.Add(1)
		return nil, false
	}
	s.moveToFront(d)
	s.mu.Unlock()
	c.hits.Add(1)
	return d, true
}

// put inserts a complete decode under the generation observed when the
// decode began. If the generation moved meanwhile the insert is
// dropped: the decode may span an invalidation and cannot be trusted.
// Lists larger than the shard budget are not cached at all.
func (c *DecodeCache) put(key uint64, genAtStart uint64, ids []txn.TID, txns []txn.Transaction) {
	if c.gen.Load() != genAtStart {
		return
	}
	d := &decodedList{key: key, gen: genAtStart, ids: ids, txns: txns, size: decodedSize(ids, txns)}
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if d.size > s.maxBytes {
		return
	}
	if old, ok := s.index[key]; ok {
		s.remove(old, c)
	}
	s.index[key] = d
	s.pushFront(d)
	s.bytes += d.size
	c.bytes.Add(d.size)
	for s.bytes > s.maxBytes && s.tail != nil && s.tail != d {
		s.remove(s.tail, c)
	}
}

// decodedSize approximates the resident footprint of one decode: slice
// headers plus item payloads.
func decodedSize(ids []txn.TID, txns []txn.Transaction) int64 {
	n := int64(len(ids))*8 + int64(len(txns))*24
	for _, t := range txns {
		n += int64(len(t)) * 8
	}
	return n + 64
}

// remove unlinks d; caller holds the shard lock.
func (s *decodeShard) remove(d *decodedList, c *DecodeCache) {
	delete(s.index, d.key)
	s.unlink(d)
	s.bytes -= d.size
	c.bytes.Add(-d.size)
}

func (s *decodeShard) unlink(d *decodedList) {
	if d.prev != nil {
		d.prev.next = d.next
	} else if s.head == d {
		s.head = d.next
	}
	if d.next != nil {
		d.next.prev = d.prev
	} else if s.tail == d {
		s.tail = d.prev
	}
	d.prev, d.next = nil, nil
}

func (s *decodeShard) pushFront(d *decodedList) {
	d.next = s.head
	if s.head != nil {
		s.head.prev = d
	}
	s.head = d
	if s.tail == nil {
		s.tail = d
	}
}

func (s *decodeShard) moveToFront(d *decodedList) {
	if s.head == d {
		return
	}
	s.unlink(d)
	s.pushFront(d)
}
