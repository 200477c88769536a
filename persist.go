package sigtable

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"sigtable/internal/core"
	"sigtable/internal/shard"
)

// Persistence. The dataset and the index structure are stored
// separately: the dataset with (*Dataset).WriteTo / ReadDataset, the
// index with WriteTo / ReadIndex (single) or ReadSharded, or ReadEngine
// for either. The index file references transactions by TID, so
// loading requires the matching dataset.
//
// Index files start with a versioned envelope:
//
//	magic   "SGTX" (4 bytes)
//	version u32 (currently 2)
//	kind    u32 (1 = single table, 2 = sharded manifest)
//
// followed by the engine's own image (the core table format, or the
// sharded manifest wrapping one core table per shard). Envelope
// version 2 marks the era whose core images record a page format;
// version-1 files are still read — their core images predate the field
// and, like every image, rebuild their pages in the current
// block-compressed layout. Seed-era files written before the
// envelope existed begin directly with the core table's own header;
// the readers sniff the first four bytes and keep accepting that
// headerless layout.

var envelopeMagic = [4]byte{'S', 'G', 'T', 'X'}

const (
	formatVersion    = 2
	minFormatVersion = 1

	kindSingle  = 1
	kindSharded = 2
)

func writeEnvelope(w io.Writer, kind uint32) (int64, error) {
	var hdr [12]byte
	copy(hdr[:4], envelopeMagic[:])
	binary.LittleEndian.PutUint32(hdr[4:8], formatVersion)
	binary.LittleEndian.PutUint32(hdr[8:12], kind)
	n, err := w.Write(hdr[:])
	return int64(n), err
}

// readEnvelope sniffs r for the envelope header. It returns the kind
// and a reader positioned after the header — or, for a legacy
// headerless file, kind 0 and a reader that replays the sniffed bytes
// before the rest of the stream.
func readEnvelope(r io.Reader) (uint32, io.Reader, error) {
	var head [4]byte
	n, err := io.ReadFull(r, head[:])
	if err != nil {
		// A file shorter than any magic: hand the bytes to the core
		// reader for its own (more specific) corruption error.
		return 0, io.MultiReader(bytes.NewReader(head[:n]), r), nil
	}
	if head != envelopeMagic {
		return 0, io.MultiReader(bytes.NewReader(head[:]), r), nil
	}
	var rest [8]byte
	if _, err := io.ReadFull(r, rest[:]); err != nil {
		return 0, nil, fmt.Errorf("sigtable: truncated index envelope: %w", err)
	}
	version := binary.LittleEndian.Uint32(rest[:4])
	if version < minFormatVersion || version > formatVersion {
		return 0, nil, fmt.Errorf("sigtable: index format version %d not supported (have %d)", version, formatVersion)
	}
	kind := binary.LittleEndian.Uint32(rest[4:])
	if kind != kindSingle && kind != kindSharded {
		return 0, nil, fmt.Errorf("sigtable: unknown index kind %d", kind)
	}
	return kind, r, nil
}

// WriteTo serializes the index structure (signature partition,
// activation threshold and entry TID lists) behind the versioned
// envelope. The dataset is not included. An index with pending deletes
// must be Rebuilt first.
func (ix *Index) WriteTo(w io.Writer) (int64, error) {
	n, err := writeEnvelope(w, kindSingle)
	if err != nil {
		return n, err
	}
	m, err := ix.load().WriteTo(w)
	return n + m, err
}

// WriteTo serializes the sharded index — the envelope, then the shard
// manifest wrapping one core table image per shard. Every shard must
// be tombstone-free (Compact first) and the global TID space hole-free.
func (sx *ShardedIndex) WriteTo(w io.Writer) (int64, error) {
	n, err := writeEnvelope(w, kindSharded)
	if err != nil {
		return n, err
	}
	m, err := sx.x.WriteTo(w)
	return n + m, err
}

// ReadIndex loads a single-table index previously written with
// (*Index).WriteTo, binding it to its dataset. Universe, size and
// coordinate consistency are validated, so passing the wrong dataset
// fails rather than silently corrupting results. Headerless seed-era
// files load transparently; a sharded file is refused with a pointer
// to ReadSharded.
func ReadIndex(r io.Reader, data *Dataset) (*Index, error) {
	kind, body, err := readEnvelope(r)
	if err != nil {
		return nil, err
	}
	if kind == kindSharded {
		return nil, fmt.Errorf("sigtable: file holds a sharded index; load it with ReadSharded (or ReadEngine)")
	}
	table, err := core.ReadTable(body, data)
	if err != nil {
		return nil, err
	}
	return newIndex(table, BuildStats{}), nil
}

// ReadSharded loads a sharded index previously written with
// (*ShardedIndex).WriteTo, binding it to the global dataset.
func ReadSharded(r io.Reader, data *Dataset) (*ShardedIndex, error) {
	kind, body, err := readEnvelope(r)
	if err != nil {
		return nil, err
	}
	switch kind {
	case kindSharded:
		x, err := shard.Read(body, data)
		if err != nil {
			return nil, err
		}
		return &ShardedIndex{x: x}, nil
	case kindSingle:
		return nil, fmt.Errorf("sigtable: file holds a single-table index; load it with ReadIndex (or ReadEngine)")
	default:
		return nil, fmt.Errorf("sigtable: file predates the sharded format; load it with ReadIndex")
	}
}

// ReadEngine loads whichever engine the file holds — single-table
// (including headerless seed-era files) or sharded — and returns it
// behind the common Engine surface.
func ReadEngine(r io.Reader, data *Dataset) (Engine, error) {
	kind, body, err := readEnvelope(r)
	if err != nil {
		return nil, err
	}
	if kind == kindSharded {
		x, err := shard.Read(body, data)
		if err != nil {
			return nil, err
		}
		return &ShardedIndex{x: x}, nil
	}
	table, err := core.ReadTable(body, data)
	if err != nil {
		return nil, err
	}
	return newIndex(table, BuildStats{}), nil
}

// Dynamic maintenance. Mutations never block queries: each one derives
// a fresh immutable table from the current snapshot (copying only the
// mutated entry's spine) and publishes it with one atomic pointer
// store. Writers serialize among themselves on a small writer mutex;
// queries in flight keep reading the snapshot they started on.

// Insert adds a transaction to the index and its dataset, returning
// the assigned TID. The new snapshot is visible to queries started
// after Insert returns; concurrent queries are never blocked.
func (ix *Index) Insert(t Transaction) TID {
	ix.wmu.Lock()
	defer ix.wmu.Unlock()
	nt, id := ix.load().InsertSnapshot(t)
	ix.table.Store(nt)
	return id
}

// InsertBatch adds several transactions under one writer-mutex
// acquisition and one snapshot publication — cheaper than
// per-transaction Inserts, which publish (and fence) once each. TIDs
// are returned in argument order.
func (ix *Index) InsertBatch(ts []Transaction) []TID {
	ix.wmu.Lock()
	defer ix.wmu.Unlock()
	ids := make([]TID, len(ts))
	table := ix.load()
	for i, t := range ts {
		table, ids[i] = table.InsertSnapshot(t)
	}
	ix.table.Store(table)
	return ids
}

// Delete tombstones a transaction; it stops appearing in results of
// queries started after Delete returns. It reports whether the TID was
// present and live.
func (ix *Index) Delete(id TID) bool {
	ix.wmu.Lock()
	defer ix.wmu.Unlock()
	nt, ok := ix.load().DeleteSnapshot(id)
	if ok {
		ix.table.Store(nt)
	}
	return ok
}

// Live reports the number of non-deleted indexed transactions.
func (ix *Index) Live() int {
	return ix.load().Live()
}

// Rebuild compacts tombstones and insert overflows into a fresh index
// over a fresh, densely renumbered dataset. The original index remains
// valid (and queryable) afterwards. It reuses the build parallelism
// the table was constructed with; see Compact for the in-place
// variant with an explicit worker count.
func (ix *Index) Rebuild() (*Index, error) {
	table, err := ix.load().Rebuild()
	if err != nil {
		return nil, err
	}
	ix.statsMu.Lock()
	stats := ix.buildStats
	ix.statsMu.Unlock()
	stats.coreStats(table.BuildStats())
	return newIndex(table, stats), nil
}

// Compact rebuilds the index in place over its live transactions,
// compacting tombstones and flushing insert overflows to pages, with
// an explicit build parallelism (0 = GOMAXPROCS, 1 = serial). The
// rebuild runs under the writer mutex — concurrent mutations queue
// behind it — but queries never notice: they keep scanning the old
// snapshot until the rebuilt table is published with one atomic store.
// TIDs are renumbered densely, exactly as by Rebuild.
func (ix *Index) Compact(parallelism int) error {
	ix.wmu.Lock()
	defer ix.wmu.Unlock()
	old := ix.load()
	table, err := old.RebuildParallel(parallelism)
	if err != nil {
		return err
	}
	// The swapped-out table's page file stays open (queries racing the
	// swap, and callers holding a Table() reference, may still scan it)
	// until Close releases the retired tables.
	ix.retired = append(ix.retired, old)
	ix.table.Store(table)
	ix.statsMu.Lock()
	ix.buildStats.coreStats(table.BuildStats())
	ix.statsMu.Unlock()
	return nil
}

// Validate runs a full consistency sweep over the index (entry order,
// coordinate agreement, counts, tombstones) and returns the first
// violated invariant, or nil.
func (ix *Index) Validate() error {
	return ix.load().Validate()
}
