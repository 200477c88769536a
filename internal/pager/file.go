package pager

import (
	"encoding/binary"
	"fmt"
	"os"
	"sync"
)

// fileBackend stores pages in fixed-size slots of an operating-system
// file, so the "simulated" disk can be an actual disk. Each slot is
// pageSize+4 bytes: a little-endian length prefix followed by the
// payload. All I/O is positional (ReadAt/WriteAt, i.e. pread/pwrite),
// which never touches the shared file offset, so concurrent page reads
// and writes to distinct slots proceed without serializing on a lock.
// The mutex guards only the count counter — the one piece of mutable
// shared state.
type fileBackend struct {
	mu       sync.Mutex
	f        *os.File
	pageSize int
	count    int
}

func (b *fileBackend) pageCount() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.count
}

// NewFileStore creates a store whose pages live in the file at path
// (truncated if it exists). Close releases the file handle.
func NewFileStore(path string, pageSize int) (*Store, error) {
	pageSize = checkPageSize(pageSize)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("pager: opening %s: %w", path, err)
	}
	return &Store{pageSize: pageSize, back: &fileBackend{f: f, pageSize: pageSize}}, nil
}

// Close releases the backing file, if any.
func (s *Store) Close() error {
	if fb, ok := s.back.(*fileBackend); ok {
		return fb.f.Close()
	}
	return nil
}

func (b *fileBackend) slotSize() int64 { return int64(b.pageSize) + 4 }

func (b *fileBackend) reserve() PageID {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.count++
	return PageID(b.count - 1)
}

// writeAt fills a reserved slot. os.File.WriteAt is positional and
// safe for concurrent use, so the mutex is only held for the bounds
// check.
func (b *fileBackend) writeAt(id PageID, data []byte) error {
	if int(id) >= b.pageCount() {
		return fmt.Errorf("pager: write to unreserved page %d", id)
	}
	slot := make([]byte, b.slotSize())
	binary.LittleEndian.PutUint32(slot, uint32(len(data)))
	copy(slot[4:], data)
	if _, err := b.f.WriteAt(slot, int64(id)*b.slotSize()); err != nil {
		return fmt.Errorf("pager: writing page %d: %w", id, err)
	}
	return nil
}

// read fetches one slot with a positional ReadAt, holding no lock
// across the I/O. Scans fetch through readPages; read is the
// single-page reference the coalesced path is tested against.
func (b *fileBackend) read(id PageID) ([]byte, error) {
	if int(id) >= b.pageCount() {
		return nil, fmt.Errorf("pager: read of unallocated page %d", id)
	}
	slot := make([]byte, b.slotSize())
	if _, err := b.f.ReadAt(slot, int64(id)*b.slotSize()); err != nil {
		return nil, fmt.Errorf("pager: reading page %d: %w", id, err)
	}
	n := binary.LittleEndian.Uint32(slot)
	if int(n) > b.pageSize {
		return nil, fmt.Errorf("pager: page %d declares %d bytes, page size is %d", id, n, b.pageSize)
	}
	return slot[4 : 4+n], nil
}

// readPages fetches n consecutive slots with a single positional
// ReadAt — one pread where the per-page path would issue n — into
// into's buffer, then splits it into per-slot payloads. Each payload
// aliases the buffer, so it stays valid until the buffer is passed to
// another read.
func (b *fileBackend) readPages(base PageID, n int, into runBuf) (runBuf, error) {
	if int(base)+n > b.pageCount() {
		return into, fmt.Errorf("pager: read of unallocated pages [%d,%d)", base, int(base)+n)
	}
	slot := b.slotSize()
	into.buf = grow(into.buf, int(slot)*n)
	into.pages = grow(into.pages, n)
	if _, err := b.f.ReadAt(into.buf, int64(base)*slot); err != nil {
		return into, fmt.Errorf("pager: reading pages [%d,%d): %w", base, int(base)+n, err)
	}
	for i := range into.pages {
		s := into.buf[int64(i)*slot : int64(i+1)*slot]
		ln := binary.LittleEndian.Uint32(s)
		if int(ln) > b.pageSize {
			return into, fmt.Errorf("pager: page %d declares %d bytes, page size is %d", base+PageID(i), ln, b.pageSize)
		}
		into.pages[i] = s[4 : 4+ln]
	}
	return into, nil
}

func (b *fileBackend) numPages() int {
	return b.pageCount()
}
