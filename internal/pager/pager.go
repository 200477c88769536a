// Package pager simulates the disk layer of the paper's architecture:
// the signature table lives in main memory, but each entry points to a
// list of disk pages holding its transactions (paper Figure 1). Since
// this reproduction has no disk array, the pager provides page-granular
// storage with I/O accounting — the quantity the paper's pruning
// efficiency is a proxy for — plus an optional LRU buffer pool.
//
// Lists are stored in one layout: records are block-compressed into
// bit-packed frames, and the frames of consecutive entry lists are
// packed into shared pages (see codec2.go). Reading an entry's list is
// still sequential over a contiguous run of pages, while the
// inverted-index baseline's accesses scatter across pages (§5.1's
// "page scattering effect").
package pager

import (
	"fmt"
	"sync"
	"sync/atomic"

	"sigtable/internal/bitset"
	"sigtable/internal/txn"
)

// DefaultPageSize is the page size in bytes used when none is given.
const DefaultPageSize = 4096

// MinPageSize is the smallest page size a store accepts.
const MinPageSize = 64

// PageID identifies a page within a Store.
type PageID = uint32

// Format names an on-page list encoding. FormatV2, the block-compressed
// frame layout, is the only one a store writes; the type remains so
// callers that still name a format (core.BuildOptions.PageFormat)
// compile.
type Format int

// FormatV2 is the block-compressed layout: records grouped into
// bit-packed frames, frames of consecutive lists packed into shared
// pages. See codec2.go for the frame encoding.
const FormatV2 Format = 2

func (f Format) String() string {
	if f == FormatV2 {
		return "v2"
	}
	return fmt.Sprintf("Format(%d)", int(f))
}

// Stats counts simulated I/O.
type Stats struct {
	// Reads is the number of page read requests issued.
	Reads int64
	// Misses is the number of reads that went to "disk" (not absorbed
	// by the buffer pool). Without a buffer pool, Misses == Reads.
	Misses int64
	// Writes is the number of pages written.
	Writes int64
	// BytesRead is the payload bytes returned by page reads, pool hits
	// included (it moves with Reads, not Misses).
	BytesRead int64
	// BytesWritten is the payload bytes written to pages.
	BytesWritten int64
	// BytesLogical is the uncompressed size of every record written: 4
	// bytes of TID, 4 of length, 4 per item. BytesLogical over
	// BytesWritten is the write-side compression ratio.
	BytesLogical int64
	// BackendReads is the number of read calls issued to the backend —
	// actual preads on a file-backed store. Run coalescing makes this
	// lower than Misses: a run of consecutive missing pages is fetched
	// with one call. Without coalescing, BackendReads == Misses.
	BackendReads int64
	// CoalescedReads counts backend reads that covered more than one
	// page; ReadRunPages is the total pages those multi-page runs
	// fetched. ReadRunPages / CoalescedReads is the mean run length.
	CoalescedReads int64
	ReadRunPages   int64
}

// backend is where page payloads physically live: in memory or in a
// file.
type backend interface {
	// reserve extends the page space by one page and returns its
	// PageID; the page holds no payload until writeAt fills it.
	reserve() PageID
	// writeAt fills a previously reserved page. Concurrent writeAt
	// calls on distinct PageIDs are safe; writing the same page twice
	// or racing a writeAt with a read of that page is not.
	writeAt(id PageID, data []byte) error
	// read fetches one page; scans use readPages, and read is the
	// reference its coalesced runs are checked against.
	read(id PageID) ([]byte, error)
	// readPages fetches n consecutive pages starting at base with one
	// backend operation (a single pread on the file backend), returning
	// one payload per page. It builds the run in into's storage,
	// growing it as needed; a zero into gets fresh storage.
	readPages(base PageID, n int, into runBuf) (runBuf, error)
	numPages() int
}

// Store is a page store with read accounting. Lists are written in
// two steps: StageList encodes a list into frames without touching the
// store, so any number of goroutines can stage at once, and
// AppendStaged places the frames on the shared tail page from a single
// goroutine. WriteList is the two steps back to back. Placing lists in
// the same order yields the same page layout however they were staged,
// which is how the parallel index build matches a serial one. Seal
// flushes the last tail page before any scan.
//
// Reads (ScanList) may run concurrently with each other once the store
// is sealed — the counters are atomic and the buffer pool locks
// internally. AttachPool must not race with reads or writes.
type Store struct {
	pageSize       int
	back           backend
	reads          atomic.Int64
	misses         atomic.Int64
	writes         atomic.Int64
	bytesRead      atomic.Int64
	bytesWritten   atomic.Int64
	bytesLogical   atomic.Int64
	backendReads   atomic.Int64
	coalescedReads atomic.Int64
	readRunPages   atomic.Int64
	pool           *BufferPool
	decodes        *DecodeCache

	// tail is the open shared page of the writer: frames accumulate
	// here until the page fills (or Seal flushes it). Guarded by the
	// same discipline as WriteList — the serial write path only.
	tail *tailPage
}

// tailPage is a reserved-but-unflushed page being filled.
type tailPage struct {
	id  PageID
	buf []byte
}

// NewStore creates a memory-backed store with the given page size
// (0 selects DefaultPageSize; below MinPageSize panics).
func NewStore(pageSize int) *Store {
	return &Store{pageSize: checkPageSize(pageSize), back: &memBackend{}}
}

func checkPageSize(pageSize int) int {
	if pageSize == 0 {
		pageSize = DefaultPageSize
	}
	if pageSize < MinPageSize {
		panic(fmt.Sprintf("pager: page size %d too small", pageSize))
	}
	return pageSize
}

// PageSize reports the configured page size in bytes.
func (s *Store) PageSize() int { return s.pageSize }

// NumPages reports how many pages have been allocated.
func (s *Store) NumPages() int { return s.back.numPages() }

// memBackend keeps pages in process memory. The RWMutex guards the
// slice header: reserve (which may reallocate) takes it exclusively,
// while reads and writes of already reserved slots share it.
type memBackend struct {
	mu    sync.RWMutex
	pages [][]byte
}

func (m *memBackend) reserve() PageID {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.pages = append(m.pages, nil)
	return PageID(len(m.pages) - 1)
}

func (m *memBackend) writeAt(id PageID, data []byte) error {
	page := make([]byte, len(data))
	copy(page, data)
	m.mu.RLock()
	defer m.mu.RUnlock()
	if int(id) >= len(m.pages) {
		return fmt.Errorf("pager: write to unreserved page %d", id)
	}
	m.pages[id] = page
	return nil
}

func (m *memBackend) read(id PageID) ([]byte, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if int(id) >= len(m.pages) {
		return nil, fmt.Errorf("pager: read of unallocated page %d", id)
	}
	return m.pages[id], nil
}

func (m *memBackend) readPages(base PageID, n int, into runBuf) (runBuf, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if int(base)+n > len(m.pages) {
		return into, fmt.Errorf("pager: read of unallocated pages [%d,%d)", base, int(base)+n)
	}
	into.pages = grow(into.pages, n)
	copy(into.pages, m.pages[base:int(base)+n])
	return into, nil
}

// runBuf is the storage of one coalesced read: the raw bytes, if the
// backend copies pages out, and the per-page payload views.
type runBuf struct {
	buf   []byte
	pages [][]byte
}

// grow returns s resized to n, reusing its backing array when it is
// large enough.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

func (m *memBackend) numPages() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.pages)
}

// Stats returns a snapshot of the I/O counters.
func (s *Store) Stats() Stats {
	return Stats{
		Reads:        s.reads.Load(),
		Misses:       s.misses.Load(),
		Writes:       s.writes.Load(),
		BytesRead:    s.bytesRead.Load(),
		BytesWritten: s.bytesWritten.Load(),
		BytesLogical: s.bytesLogical.Load(),

		BackendReads:   s.backendReads.Load(),
		CoalescedReads: s.coalescedReads.Load(),
		ReadRunPages:   s.readRunPages.Load(),
	}
}

// ResetStats zeroes the I/O counters (buffer pool contents persist).
func (s *Store) ResetStats() {
	s.reads.Store(0)
	s.misses.Store(0)
	s.writes.Store(0)
	s.bytesRead.Store(0)
	s.bytesWritten.Store(0)
	s.bytesLogical.Store(0)
	s.backendReads.Store(0)
	s.coalescedReads.Store(0)
	s.readRunPages.Store(0)
}

// Pool returns the attached buffer pool, or nil when reads go straight
// to the backend.
func (s *Store) Pool() *BufferPool { return s.pool }

// AttachPool routes reads through an LRU buffer pool of the given page
// capacity; hits do not count as misses. A capacity of 0 detaches the
// pool.
func (s *Store) AttachPool(capacity int) {
	if capacity == 0 {
		s.pool = nil
		return
	}
	s.pool = NewBufferPool(capacity)
}

// DecodeCache returns the attached decoded-entry cache, or nil when
// every scan decodes from pages.
func (s *Store) DecodeCache() *DecodeCache { return s.decodes }

// AttachDecodeCache routes full-list scans through a decoded-entry
// cache bounded by maxBytes of decoded payload: a repeat scan of a
// cached list skips both the page reads and the varint decoding. A
// maxBytes of 0 detaches the cache. Like AttachPool, it must not race
// with reads or writes.
func (s *Store) AttachDecodeCache(maxBytes int64) {
	if maxBytes == 0 {
		s.decodes = nil
		return
	}
	s.decodes = NewDecodeCache(maxBytes)
}

// InvalidateList evicts the cached decode of one list (no-op without a
// cache or for a pageless list), leaving every other entry's decode
// resident. Mutations are scoped to a single entry's list and pages
// are write-once, so decodes of other lists cannot have gone stale.
func (s *Store) InvalidateList(l List) {
	if s.decodes == nil || len(l.Pages) == 0 {
		return
	}
	s.decodes.InvalidateList(listKey(l))
}

// maxReadRun caps how many consecutive pages one coalesced backend
// read may fetch: 32 pages is 128 KiB at the default page size, large
// enough to amortize the syscall, small enough to bound the buffered
// payload a scan holds before consuming it.
const maxReadRun = 32

// runReader serves one scan's page fetches in list order, coalescing
// runs of consecutive pool-missing PageIDs into single backend reads.
// Reads, Misses, BytesRead and the per-query counter all move when a
// page is *consumed* by the scan, so Misses means "this page came from
// disk" and an early-stopped scan never counts pages it buffered but
// did not reach. Only BackendReads — the syscall count — shrinks.
type runReader struct {
	s     *Store
	pages []PageID
	reads *atomic.Int64
	pos   int // next index into pages to consume

	run     [][]byte // payloads fetched by the last coalesced read
	runFrom int      // index into pages of run[0]
	storage runBuf   // run's storage, reused by the next read when no pool keeps pages
}

func newRunReader(s *Store, pages []PageID, reads *atomic.Int64) runReader {
	return runReader{s: s, pages: pages, reads: reads, runFrom: -1}
}

// next returns the payload of the next page in the list, fetching a
// coalesced run from the backend when the page is neither pooled nor
// already buffered. Errors panic: a missing page under the write-once
// discipline is a bug, not an I/O condition.
func (r *runReader) next() []byte {
	i := r.pos
	id := r.pages[i]
	r.pos++
	r.s.reads.Add(1)
	if r.reads != nil {
		r.reads.Add(1)
	}
	// Buffered by the current run: consume it, accounting the disk
	// read it was, and admit it to the pool now that it is hot.
	if r.runFrom >= 0 && i >= r.runFrom && i < r.runFrom+len(r.run) {
		return r.consume(id, r.run[i-r.runFrom])
	}
	if r.s.pool != nil {
		if data, ok := r.s.pool.Get(id); ok {
			r.s.bytesRead.Add(int64(len(data)))
			return data
		}
	}
	// Miss: fetch the run of consecutive PageIDs ahead of the cursor
	// with one backend read, stopping at the first pool-resident page
	// (re-reading it would waste backend bandwidth on a sure hit).
	n := 1
	for i+n < len(r.pages) && n < maxReadRun && r.pages[i+n] == id+PageID(n) {
		if r.s.pool != nil && r.s.pool.Contains(r.pages[i+n]) {
			break
		}
		n++
	}
	// Without a pool nothing keeps a page past the scan's move to the
	// next one, and decoded records never alias page bytes, so the
	// last run's storage can take this run. A pool keeps the views it
	// is given, so each run then needs its own.
	var into runBuf
	if r.s.pool == nil {
		into = r.storage
	}
	rb, err := r.s.back.readPages(id, n, into)
	if err != nil {
		panic(err.Error())
	}
	r.s.backendReads.Add(1)
	if n > 1 {
		r.s.coalescedReads.Add(1)
		r.s.readRunPages.Add(int64(n))
	}
	r.storage = rb
	r.run, r.runFrom = rb.pages, i
	return r.consume(id, rb.pages[0])
}

func (r *runReader) consume(id PageID, data []byte) []byte {
	r.s.misses.Add(1)
	if r.s.pool != nil {
		r.s.pool.Put(id, data)
	}
	r.s.bytesRead.Add(int64(len(data)))
	return data
}

// List is a handle to a transaction list. Its frames may share pages
// with neighboring lists; Start is the byte offset of the first frame
// within Pages[0]. The list always occupies a contiguous byte range
// across its pages.
type List struct {
	Pages []PageID
	Start int // byte offset of the list's first frame in Pages[0]
	Count int // number of transactions in the list
}

// WriteList serializes transactions (with their TIDs) into frames
// appended to the store's shared tail page and returns the handle (call
// Seal before reading once all lists are written). It must not run
// concurrently with any other write; use StageList for concurrent
// encoding.
func (s *Store) WriteList(tids []txn.TID, txns []txn.Transaction) (List, error) {
	st, err := s.StageList(tids, txns)
	if err != nil {
		return List{}, err
	}
	return s.AppendStaged(st), nil
}

// StagedList holds a transaction list encoded into frames but not yet
// placed. Staging is the CPU-heavy half of a list write, and StagedList
// values are independent, so many goroutines can stage lists at once.
type StagedList struct {
	frames  [][]byte
	count   int
	logical int64
}

// StageList encodes a transaction list without allocating PageIDs.
// Safe to call concurrently with other StageList calls and with reads.
func (s *Store) StageList(tids []txn.TID, txns []txn.Transaction) (*StagedList, error) {
	frames, logical, err := encodeFrames(s.pageSize, tids, txns)
	if err != nil {
		return nil, err
	}
	return &StagedList{frames: frames, count: len(txns), logical: logical}, nil
}

// AppendStaged places a staged list's frames on the store's shared
// tail page, opening fresh pages as frames overflow, and returns the
// handle. Like WriteList, it is part of the serial write discipline:
// the parallel build stages lists concurrently, then appends them from
// a single goroutine in entry order, which is what makes the parallel
// layout byte-identical to a serial build's. Call Seal before reading.
func (s *Store) AppendStaged(st *StagedList) List {
	list := List{Count: st.count}
	for _, fr := range st.frames {
		if s.tail != nil && len(s.tail.buf)+len(fr) > s.pageSize {
			s.flushTail()
		}
		if s.tail == nil {
			s.tail = &tailPage{id: s.back.reserve(), buf: make([]byte, 0, s.pageSize)}
		}
		if len(list.Pages) == 0 {
			list.Start = len(s.tail.buf)
		}
		if n := len(list.Pages); n == 0 || list.Pages[n-1] != s.tail.id {
			list.Pages = append(list.Pages, s.tail.id)
		}
		s.tail.buf = append(s.tail.buf, fr...)
	}
	s.bytesLogical.Add(st.logical)
	return list
}

func (s *Store) flushTail() {
	if err := s.back.writeAt(s.tail.id, s.tail.buf); err != nil {
		panic(fmt.Sprintf("pager: flushing tail page %d: %v", s.tail.id, err))
	}
	s.writes.Add(1)
	s.bytesWritten.Add(int64(len(s.tail.buf)))
	s.tail = nil
}

// Seal flushes the open tail page, if any. Writers must Seal after the
// last WriteList/AppendStaged and before any scan of the lists written
// since the previous Seal. Pages are write-once: a write after Seal
// opens a fresh page rather than reopening the sealed one.
func (s *Store) Seal() {
	if s.tail != nil {
		s.flushTail()
	}
}

// ScanList decodes every transaction of a list, invoking fn for each.
// Returning false from fn stops the scan early; pages not reached are
// not read (and not counted). The Transaction passed to fn may be
// retained but must not be modified: with a decode cache attached the
// same backing slices are handed to every scan that hits, and without
// one each is freshly allocated. When reads is non-nil it accumulates
// the pages fetched by this scan alone, so callers running scans
// concurrently can attribute I/O per query instead of relying on the
// store's global counters. A scan served from the decode cache fetches
// no pages, so neither counter moves — PagesRead measures real I/O, not
// logical visits.
func (s *Store) ScanList(l List, reads *atomic.Int64, fn func(id txn.TID, t txn.Transaction) bool) error {
	if s.decodes == nil || len(l.Pages) == 0 {
		_, err := s.scanPages(l, reads, fn)
		return err
	}
	key := listKey(l)
	if d, ok := s.decodes.get(key); ok {
		for i, id := range d.ids {
			if !fn(id, d.txns[i]) {
				return nil
			}
		}
		return nil
	}
	gen := s.decodes.Generation()
	ids := make([]txn.TID, 0, l.Count)
	txns := make([]txn.Transaction, 0, l.Count)
	complete, err := s.scanPages(l, reads, func(id txn.TID, t txn.Transaction) bool {
		ids = append(ids, id)
		txns = append(txns, t)
		return fn(id, t)
	})
	if err == nil && complete {
		s.decodes.put(key, gen, ids, txns)
	}
	return err
}

// listKey is the decode-cache identity of a list. Lists share pages, so the first PageID alone is ambiguous; the start offset
// disambiguates every list that opens on the same page.
func listKey(l List) uint64 {
	return uint64(l.Pages[0])<<32 | uint64(uint32(l.Start))
}

// ScanListStats is the fused decode-and-score scan: for each record it
// reports the record's length and how many of its items are set in
// mask — the (match, |candidate|) statistics every similarity function
// in the search layer is computed from — without materializing a
// Transaction per record. fn receives the record's TID, match count
// and hamming distance against a target of targetLen items. mask must
// cover every item in the list (the query paths build it over the item
// universe). Early-stop and read-accounting semantics match ScanList.
//
// With a decode cache attached, the scan goes through ScanList so
// cache hits and fills behave identically to materializing scans; the
// fused frame walk is the no-cache path, where decode cost is paid on
// every scan.
func (s *Store) ScanListStats(l List, reads *atomic.Int64, mask *bitset.Set, targetLen int, fn func(id txn.TID, match, hamming int) bool) error {
	if s.decodes != nil && len(l.Pages) > 0 {
		return s.ScanList(l, reads, func(id txn.TID, t txn.Transaction) bool {
			x, y := txn.MatchHammingBits(mask, targetLen, t)
			return fn(id, x, y)
		})
	}
	c := v2Cursor{s: s, l: l, reads: reads}
	if err := c.init(); err != nil {
		return err
	}
	for {
		f, done, err := c.next()
		if err != nil {
			return err
		}
		if done {
			return nil
		}
		stopped, err := f.decodeStats(mask, func(id txn.TID, n, x int) bool {
			return fn(id, x, targetLen+n-2*x)
		})
		if err != nil {
			return err
		}
		if stopped {
			return nil
		}
	}
}

// scanPages is the page-decoding scan behind ScanList. The bool result
// reports whether every record was decoded (false on early stop), which
// is what gates caching: a truncated decode must not be memoized as the
// whole list.
func (s *Store) scanPages(l List, reads *atomic.Int64, fn func(id txn.TID, t txn.Transaction) bool) (bool, error) {
	c := v2Cursor{s: s, l: l, reads: reads}
	if err := c.init(); err != nil {
		return false, err
	}
	for {
		f, done, err := c.next()
		if err != nil {
			return false, err
		}
		if done {
			return true, nil
		}
		seen := 0
		stopped, err := f.decode(func(id txn.TID, t txn.Transaction) bool {
			seen++
			return fn(id, t)
		})
		if err != nil {
			return false, err
		}
		if stopped {
			// Complete only if this was the final record of the list.
			return c.remaining == 0 && seen == f.count, nil
		}
	}
}
