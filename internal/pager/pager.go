// Package pager simulates the disk layer of the paper's architecture:
// the signature table lives in main memory, but each entry points to a
// list of disk pages holding its transactions (paper Figure 1). Since
// this reproduction has no disk array, the pager provides page-granular
// storage with I/O accounting — the quantity the paper's pruning
// efficiency is a proxy for — plus an optional LRU buffer pool.
//
// Two page layouts coexist. v1 mirrors the paper directly: pages are
// dedicated to a single signature table entry, so reading an entry's
// transaction list is sequential, while the inverted-index baseline's
// accesses scatter across pages (§5.1's "page scattering effect"). v2
// keeps the sequential-read property but block-compresses records into
// bit-packed frames and packs the frames of consecutive entry lists
// into shared pages (see codec2.go), collapsing the long tail of
// near-empty single-entry pages that dominates v1's page count.
package pager

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"sigtable/internal/bitset"
	"sigtable/internal/txn"
)

// DefaultPageSize is the page size in bytes used when none is given.
const DefaultPageSize = 4096

// PageID identifies a page within a Store.
type PageID = uint32

// Format selects the on-page encoding of transaction lists.
type Format int

const (
	// FormatV1 is the original layout: one uvarint record per
	// transaction, records never spanning pages, every page dedicated
	// to a single entry list.
	FormatV1 Format = 1
	// FormatV2 is the block-compressed layout: records grouped into
	// bit-packed frames, frames of consecutive lists packed into
	// shared pages. See codec2.go for the frame encoding.
	FormatV2 Format = 2
)

func (f Format) String() string {
	switch f {
	case FormatV1:
		return "v1"
	case FormatV2:
		return "v2"
	default:
		return fmt.Sprintf("Format(%d)", int(f))
	}
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
	append(data []byte) (PageID, error)
	// reserve extends the page space by n pages and returns the first
	// new PageID; the pages hold no payload until writeAt fills them.
	reserve(n int) (PageID, error)
	// writeAt fills a previously reserved page. Concurrent writeAt
	// calls on distinct PageIDs are safe; writing the same page twice
	// or racing a writeAt with a read of that page is not.
	writeAt(id PageID, data []byte) error
	read(id PageID) ([]byte, error)
	// readPages fetches n consecutive pages starting at base with one
	// backend operation (a single pread on the file backend), returning
	// one payload per page.
	readPages(base PageID, n int) ([][]byte, error)
	numPages() int
}

// Store is a page store with read accounting. Two write disciplines
// coexist:
//
//   - WriteList appends pages one list at a time and must not run
//     concurrently with anything (the serial build path).
//   - The staged API (StageList → ReservePages → InstallList) splits
//     encoding from placement so many goroutines can write at once:
//     StageList calls are independent, ReservePages hands out disjoint
//     contiguous PageID ranges under the backend's lock, and
//     InstallList calls on disjoint ranges run concurrently. This is
//     how the parallel index build keeps every core busy while
//     producing the exact page layout of a serial build.
//
// Reads (ScanList) may run concurrently with each other once the pages
// they touch are written — the counters are atomic and the buffer pool
// locks internally. AttachPool must not race with reads or writes.
type Store struct {
	pageSize       int
	format         Format
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
	prefetch       atomic.Pointer[Prefetcher]

	// tail is the open shared page of the v2 writer: frames accumulate
	// here until the page fills (or Seal flushes it). Guarded by the
	// same discipline as WriteList — the serial write path only.
	tail *tailPage
}

// tailPage is a reserved-but-unflushed v2 page being filled.
type tailPage struct {
	id  PageID
	buf []byte
}

// NewStore creates a memory-backed store with the given page size
// (0 selects DefaultPageSize), using the v1 page format.
func NewStore(pageSize int) *Store {
	return NewStoreFormat(pageSize, FormatV1)
}

// NewStoreFormat creates a memory-backed store writing lists in the
// given page format.
func NewStoreFormat(pageSize int, format Format) *Store {
	return &Store{pageSize: checkPageSize(pageSize), format: checkFormat(format), back: &memBackend{}}
}

func checkFormat(f Format) Format {
	if f != FormatV1 && f != FormatV2 {
		panic(fmt.Sprintf("pager: unknown page format %d", int(f)))
	}
	return f
}

// Format reports the page format the store writes.
func (s *Store) Format() Format { return s.format }

func checkPageSize(pageSize int) int {
	if pageSize == 0 {
		pageSize = DefaultPageSize
	}
	if pageSize < 64 {
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
// while reads and writes of already reserved slots share it — writers
// to distinct slots never block each other.
type memBackend struct {
	mu    sync.RWMutex
	pages [][]byte
}

func (m *memBackend) append(data []byte) (PageID, error) {
	id, err := m.reserve(1)
	if err != nil {
		return 0, err
	}
	return id, m.writeAt(id, data)
}

func (m *memBackend) reserve(n int) (PageID, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	base := len(m.pages)
	m.pages = append(m.pages, make([][]byte, n)...)
	return PageID(base), nil
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

func (m *memBackend) readPages(base PageID, n int) ([][]byte, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if int(base)+n > len(m.pages) {
		return nil, fmt.Errorf("pager: read of unallocated pages [%d,%d)", base, int(base)+n)
	}
	run := make([][]byte, n)
	copy(run, m.pages[base:int(base)+n])
	return run, nil
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
// are write-once, so decodes of other lists cannot have gone stale,
// and the prefetch generation is deliberately left alone — in-flight
// prefetches only warm the buffer pool with immutable pages.
func (s *Store) InvalidateList(l List) {
	if s.decodes == nil || len(l.Pages) == 0 {
		return
	}
	s.decodes.InvalidateList(listKey(l))
}

// appendPage allocates a new page containing data (len <= pageSize).
func (s *Store) appendPage(data []byte) PageID {
	if len(data) > s.pageSize {
		panic(fmt.Sprintf("pager: page payload %d exceeds page size %d", len(data), s.pageSize))
	}
	id, err := s.back.append(data)
	if err != nil {
		panic(fmt.Sprintf("pager: appending page: %v", err))
	}
	s.writes.Add(1)
	s.bytesWritten.Add(int64(len(data)))
	return id
}

// readPage returns a page's payload, counting the access globally and,
// when reads is non-nil, on the caller's own counter. The per-caller
// counter is what lets concurrent queries each report an accurate
// PagesRead.
func (s *Store) readPage(id PageID, reads *atomic.Int64) []byte {
	s.reads.Add(1)
	if reads != nil {
		reads.Add(1)
	}
	if s.pool != nil {
		if data, ok := s.pool.Get(id); ok {
			s.notePoolHit(id)
			s.bytesRead.Add(int64(len(data)))
			return data
		}
	}
	s.misses.Add(1)
	data, err := s.back.read(id)
	if err != nil {
		panic(err.Error())
	}
	s.backendReads.Add(1)
	if s.pool != nil {
		s.pool.Put(id, data)
	}
	s.bytesRead.Add(int64(len(data)))
	return data
}

// maxReadRun caps how many consecutive pages one coalesced backend
// read may fetch: 32 pages is 128 KiB at the default page size, large
// enough to amortize the syscall, small enough to bound the buffered
// payload a scan holds before consuming it.
const maxReadRun = 32

// runReader serves one scan's page fetches in list order, coalescing
// runs of consecutive pool-missing PageIDs into single backend reads.
// Counter semantics are unchanged from readPage: Reads, Misses,
// BytesRead and the per-query counter all move when a page is
// *consumed* by the scan, so Misses still means "this page came from
// disk" and an early-stopped scan never counts pages it buffered but
// did not reach. Only BackendReads — the syscall count — shrinks.
type runReader struct {
	s     *Store
	pages []PageID
	reads *atomic.Int64
	pos   int // next index into pages to consume

	run     [][]byte // payloads fetched by the last coalesced read
	runFrom int      // index into pages of run[0]
}

func newRunReader(s *Store, pages []PageID, reads *atomic.Int64) runReader {
	return runReader{s: s, pages: pages, reads: reads, runFrom: -1}
}

// next returns the payload of the next page in the list, fetching a
// coalesced run from the backend when the page is neither pooled nor
// already buffered. Errors panic, matching readPage: a missing page
// under the write-once discipline is a bug, not an I/O condition.
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
			r.s.notePoolHit(id)
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
	run, err := r.s.back.readPages(id, n)
	if err != nil {
		panic(err.Error())
	}
	r.s.backendReads.Add(1)
	if n > 1 {
		r.s.coalescedReads.Add(1)
		r.s.readRunPages.Add(int64(n))
	}
	r.run, r.runFrom = run, i
	return r.consume(id, run[0])
}

func (r *runReader) consume(id PageID, data []byte) []byte {
	r.s.misses.Add(1)
	if r.s.pool != nil {
		r.s.pool.Put(id, data)
	}
	r.s.bytesRead.Add(int64(len(data)))
	return data
}

// List is a handle to a transaction list. With the v1 format its pages
// are dedicated to this list alone and Start is always 0; with v2 the
// list's frames may share pages with neighboring lists, and Start is
// the byte offset of the first frame within Pages[0]. The list always
// occupies a contiguous byte range across its pages.
type List struct {
	Pages []PageID
	Start int // byte offset of the list's first frame in Pages[0] (v2; 0 in v1)
	Count int // number of transactions in the list
}

// encodeList serializes transactions (with their TIDs) into page
// payloads. Encoding per record: uvarint TID, uvarint length, then
// uvarint item deltas. A record never spans pages; a record larger
// than the page size is rejected. Both write disciplines share this
// encoder, which is what makes the staged layout byte-identical to
// the serial one.
func encodeList(pageSize int, tids []txn.TID, txns []txn.Transaction) ([][]byte, error) {
	if len(tids) != len(txns) {
		return nil, fmt.Errorf("pager: %d tids for %d transactions", len(tids), len(txns))
	}
	var pages [][]byte
	buf := make([]byte, 0, pageSize)
	rec := make([]byte, 0, 256)
	var tmp [binary.MaxVarintLen64]byte

	flush := func() {
		if len(buf) > 0 {
			page := make([]byte, len(buf))
			copy(page, buf)
			pages = append(pages, page)
			buf = buf[:0]
		}
	}

	for i, t := range txns {
		rec = rec[:0]
		n := binary.PutUvarint(tmp[:], uint64(tids[i]))
		rec = append(rec, tmp[:n]...)
		n = binary.PutUvarint(tmp[:], uint64(len(t)))
		rec = append(rec, tmp[:n]...)
		prev := txn.Item(0)
		for j, x := range t {
			d := x - prev
			if j == 0 {
				d = x
			}
			n = binary.PutUvarint(tmp[:], uint64(d))
			rec = append(rec, tmp[:n]...)
			prev = x
		}
		if len(rec) > pageSize {
			return nil, fmt.Errorf("pager: transaction %d encodes to %d bytes, exceeding page size %d", tids[i], len(rec), pageSize)
		}
		if len(buf)+len(rec) > pageSize {
			flush()
		}
		buf = append(buf, rec...)
	}
	flush()
	return pages, nil
}

// WriteList serializes transactions (with their TIDs) into pages and
// returns the handle. With the v1 format it appends fresh dedicated
// pages; with v2 it appends frames to the store's shared tail page
// (call Seal before reading once all lists are written). Either way it
// must not run concurrently with any other write; use the staged API
// for concurrent encoding.
func (s *Store) WriteList(tids []txn.TID, txns []txn.Transaction) (List, error) {
	if s.format == FormatV2 {
		st, err := s.StageList(tids, txns)
		if err != nil {
			return List{}, err
		}
		return s.AppendStaged(st), nil
	}
	pages, err := encodeList(s.pageSize, tids, txns)
	if err != nil {
		return List{}, err
	}
	list := List{Count: len(txns)}
	for _, p := range pages {
		list.Pages = append(list.Pages, s.appendPage(p))
	}
	for _, t := range txns {
		s.bytesLogical.Add(logicalSize(t))
	}
	return list, nil
}

// StagedList holds a transaction list encoded but not yet placed:
// full page payloads under the v1 format, frame blobs under v2.
// Staging is the CPU-heavy half of a list write, and StagedList values
// are independent, so many goroutines can stage lists at once.
type StagedList struct {
	pages   [][]byte // v1: one payload per dedicated page
	frames  [][]byte // v2: frames awaiting tail placement
	count   int
	logical int64
}

// NumPages reports how many dedicated pages the staged list occupies
// once installed. Only meaningful under the v1 format — a v2 staged
// list's page footprint is decided at AppendStaged time, when the
// tail's fill level is known.
func (st *StagedList) NumPages() int { return len(st.pages) }

// StageList encodes a transaction list without allocating PageIDs.
// Safe to call concurrently with other StageList, ReservePages and
// InstallList calls.
func (s *Store) StageList(tids []txn.TID, txns []txn.Transaction) (*StagedList, error) {
	if s.format == FormatV2 {
		frames, logical, err := encodeFrames(s.pageSize, tids, txns)
		if err != nil {
			return nil, err
		}
		return &StagedList{frames: frames, count: len(txns), logical: logical}, nil
	}
	pages, err := encodeList(s.pageSize, tids, txns)
	if err != nil {
		return nil, err
	}
	var logical int64
	for _, t := range txns {
		logical += logicalSize(t)
	}
	return &StagedList{pages: pages, count: len(txns), logical: logical}, nil
}

// AppendStaged places a v2 staged list's frames on the store's shared
// tail page, opening fresh pages as frames overflow, and returns the
// handle. Like WriteList, it is part of the serial write discipline:
// the parallel build stages lists concurrently, then appends them from
// a single goroutine in entry order, which is what makes the parallel
// layout byte-identical to a serial build's. Call Seal before reading.
func (s *Store) AppendStaged(st *StagedList) List {
	if s.format != FormatV2 {
		panic("pager: AppendStaged on a v1 store; use ReservePages+InstallList")
	}
	list := List{Count: st.count}
	for _, fr := range st.frames {
		if s.tail != nil && len(s.tail.buf)+len(fr) > s.pageSize {
			s.flushTail()
		}
		if s.tail == nil {
			s.tail = &tailPage{id: s.ReservePages(1), buf: make([]byte, 0, s.pageSize)}
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

// Seal flushes the open tail page, if any. v2 writers must Seal after
// the last WriteList/AppendStaged and before any scan; pages are
// write-once, so a sealed store cannot take further list writes. A
// no-op on v1 stores.
func (s *Store) Seal() {
	if s.tail != nil {
		s.flushTail()
	}
}

// ReservePages allocates n contiguous PageIDs and returns the first.
// Reservations from concurrent callers never overlap, but callers
// wanting a deterministic layout (the parallel build does) should
// reserve from a single goroutine in placement order.
func (s *Store) ReservePages(n int) PageID {
	id, err := s.back.reserve(n)
	if err != nil {
		panic(fmt.Sprintf("pager: reserving %d pages: %v", n, err))
	}
	return id
}

// InstallList writes a staged list's pages at the contiguous PageID
// range [base, base+NumPages()) — which must have been obtained from
// ReservePages — and returns the list handle. InstallList calls on
// disjoint ranges are safe to run concurrently.
func (s *Store) InstallList(base PageID, st *StagedList) List {
	list := List{Count: st.count, Pages: make([]PageID, len(st.pages))}
	for i, p := range st.pages {
		if len(p) > s.pageSize {
			panic(fmt.Sprintf("pager: page payload %d exceeds page size %d", len(p), s.pageSize))
		}
		id := base + PageID(i)
		if err := s.back.writeAt(id, p); err != nil {
			panic(fmt.Sprintf("pager: installing page %d: %v", id, err))
		}
		s.writes.Add(1)
		s.bytesWritten.Add(int64(len(p)))
		list.Pages[i] = id
	}
	s.bytesLogical.Add(st.logical)
	return list
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

// listKey is the decode-cache identity of a list. v2 lists share
// pages, so the first PageID alone is ambiguous; the start offset
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
	if s.format == FormatV2 {
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
	// v1: decode the per-record varints, probing mask per item instead
	// of building a Transaction.
	remaining := l.Count
	rr := newRunReader(s, l.Pages, reads)
	for _, pid := range l.Pages {
		data := rr.next()
		off := 0
		for off < len(data) && remaining > 0 {
			id, n := binary.Uvarint(data[off:])
			if n <= 0 {
				return fmt.Errorf("pager: corrupt TID at page %d offset %d", pid, off)
			}
			off += n
			length, n := binary.Uvarint(data[off:])
			if n <= 0 {
				return fmt.Errorf("pager: corrupt length at page %d offset %d", pid, off)
			}
			off += n
			x := 0
			prev := uint64(0)
			for j := uint64(0); j < length; j++ {
				d, n := binary.Uvarint(data[off:])
				if n <= 0 {
					return fmt.Errorf("pager: corrupt item at page %d offset %d", pid, off)
				}
				off += n
				prev += d
				if mask.TestUnchecked(int(prev)) {
					x++
				}
			}
			remaining--
			if !fn(txn.TID(id), x, targetLen+int(length)-2*x) {
				return nil
			}
		}
	}
	if remaining != 0 {
		return fmt.Errorf("pager: list declared %d transactions but pages held %d", l.Count, l.Count-remaining)
	}
	return nil
}

// ScanListFrom is ScanList restricted to records with id >= from. With
// the v2 format, frames whose TID range lies entirely below from are
// skipped after the header parse — their bodies are never decoded
// (though the pages holding them are still read, since frames share
// pages). v1 lists carry no range metadata, so every record is decoded
// and filtered. The scan bypasses the decode cache: a filtered decode
// must not be memoized as the whole list.
func (s *Store) ScanListFrom(l List, reads *atomic.Int64, from txn.TID, fn func(id txn.TID, t txn.Transaction) bool) error {
	if s.format == FormatV2 {
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
			if f.maxTID < uint64(from) {
				continue // frame skip: header bounds every TID inside
			}
			stopped, err := f.decode(func(id txn.TID, t txn.Transaction) bool {
				if id < from {
					return true
				}
				return fn(id, t)
			})
			if err != nil {
				return err
			}
			if stopped {
				return nil
			}
		}
	}
	_, err := s.scanPages(l, reads, func(id txn.TID, t txn.Transaction) bool {
		if id < from {
			return true
		}
		return fn(id, t)
	})
	return err
}

// scanPages is the page-decoding scan behind ScanList. The bool result
// reports whether every record was decoded (false on early stop), which
// is what gates caching: a truncated decode must not be memoized as the
// whole list.
func (s *Store) scanPages(l List, reads *atomic.Int64, fn func(id txn.TID, t txn.Transaction) bool) (bool, error) {
	if s.format == FormatV2 {
		return s.scanPagesV2(l, reads, fn)
	}
	remaining := l.Count
	rr := newRunReader(s, l.Pages, reads)
	for _, pid := range l.Pages {
		data := rr.next()
		off := 0
		for off < len(data) && remaining > 0 {
			id, n := binary.Uvarint(data[off:])
			if n <= 0 {
				return false, fmt.Errorf("pager: corrupt TID at page %d offset %d", pid, off)
			}
			off += n
			length, n := binary.Uvarint(data[off:])
			if n <= 0 {
				return false, fmt.Errorf("pager: corrupt length at page %d offset %d", pid, off)
			}
			off += n
			t := make(txn.Transaction, length)
			prev := uint64(0)
			for j := range t {
				d, n := binary.Uvarint(data[off:])
				if n <= 0 {
					return false, fmt.Errorf("pager: corrupt item at page %d offset %d", pid, off)
				}
				off += n
				prev += d
				t[j] = txn.Item(prev)
			}
			remaining--
			if !fn(txn.TID(id), t) {
				return remaining == 0, nil
			}
		}
	}
	if remaining != 0 {
		return false, fmt.Errorf("pager: list declared %d transactions but pages held %d", l.Count, l.Count-remaining)
	}
	return true, nil
}
