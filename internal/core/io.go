package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sort"

	"sigtable/internal/pager"
	"sigtable/internal/signature"
	"sigtable/internal/txn"
)

// Index file format (little endian):
//
//	magic    uint32 = 0x53494754 ("SIGT")
//	version  uint32 = 2
//	universe uint32
//	txnCount uint32   (must match the dataset supplied at load)
//	r        uint32
//	K        uint32
//	K × signature item lists (uvarint count, uvarint item deltas)
//	entryCount uint32
//	entryCount × { coord uvarint, count uvarint, tid deltas uvarint }
//	pageSize uint32 (0 = memory mode)
//	pageFormat uint32 (version >= 2; 0 in memory mode, 2 in disk mode)
//
// Version 1 files end at pageSize; their disk stores were written in
// the retired v1 page format. Pages are never persisted — loading a
// disk-mode image rebuilds the lists from the dataset — so an image
// recording page format 1 or 2 loads into the current (v2) layout.
//
// The file stores only the index structure; transactions live in the
// dataset file and are referenced by TID.
const (
	tableMagic   = 0x53494754
	tableVersion = 2
)

// WriteTo serializes the table's structure. The dataset itself is not
// written; persist it separately with (*txn.Dataset).WriteTo.
//
// Tables with pending tombstones cannot be persisted directly (the
// dataset still holds the deleted transactions): call Rebuild first and
// persist the compacted table and its dataset.
func (t *Table) WriteTo(w io.Writer) (int64, error) {
	if t.live != t.data.Len() {
		return 0, fmt.Errorf("core: table has %d tombstoned transactions; Rebuild before persisting", t.data.Len()-t.live)
	}
	bw := bufio.NewWriter(w)
	var n int64
	var buf [binary.MaxVarintLen64]byte

	writeU32 := func(v uint32) error {
		binary.LittleEndian.PutUint32(buf[:4], v)
		m, err := bw.Write(buf[:4])
		n += int64(m)
		return err
	}
	writeUvarint := func(v uint64) error {
		m, err := bw.Write(buf[:binary.PutUvarint(buf[:], v)])
		n += int64(m)
		return err
	}
	writeItems := func(items []txn.Item) error {
		if err := writeUvarint(uint64(len(items))); err != nil {
			return err
		}
		prev := txn.Item(0)
		for i, it := range items {
			d := it - prev
			if i == 0 {
				d = it
			}
			if err := writeUvarint(uint64(d)); err != nil {
				return err
			}
			prev = it
		}
		return nil
	}

	for _, v := range []uint32{
		tableMagic, tableVersion,
		uint32(t.data.UniverseSize()), uint32(t.data.Len()),
		uint32(t.r), uint32(t.part.K()),
	} {
		if err := writeU32(v); err != nil {
			return n, err
		}
	}
	for _, set := range t.part.Sets() {
		if err := writeItems(set); err != nil {
			return n, err
		}
	}
	if err := writeU32(uint32(len(t.entries))); err != nil {
		return n, err
	}
	// Entries live in slot order (append order for post-build inserts);
	// serialize a coordinate-sorted copy so the bytes are deterministic
	// regardless of insertion history.
	entries := make([]*Entry, len(t.entries))
	copy(entries, t.entries)
	sort.Slice(entries, func(i, j int) bool { return entries[i].Coord < entries[j].Coord })
	for _, e := range entries {
		if err := writeUvarint(e.Coord); err != nil {
			return n, err
		}
		tids := t.TIDs(e)
		if err := writeUvarint(uint64(len(tids))); err != nil {
			return n, err
		}
		prev := txn.TID(0)
		for i, id := range tids {
			d := id - prev
			if i == 0 {
				d = id
			}
			if err := writeUvarint(uint64(d)); err != nil {
				return n, err
			}
			prev = id
		}
	}
	pageSize, pageFormat := uint32(0), uint32(0)
	if t.store != nil {
		pageSize = uint32(t.store.PageSize())
		pageFormat = uint32(pager.FormatV2)
	}
	if err := writeU32(pageSize); err != nil {
		return n, err
	}
	if err := writeU32(pageFormat); err != nil {
		return n, err
	}
	return n, bw.Flush()
}

// ReadTable loads a table previously written with WriteTo, binding it
// to the dataset its TIDs refer to. The dataset must be the one the
// table was built over (universe and length are validated; coordinates
// are spot-validated against the partition).
func ReadTable(r io.Reader, data *txn.Dataset) (*Table, error) {
	br := bufio.NewReader(r)
	var b4 [4]byte
	readU32 := func() (uint32, error) {
		if _, err := io.ReadFull(br, b4[:]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint32(b4[:]), nil
	}

	magic, err := readU32()
	if err != nil {
		return nil, fmt.Errorf("core: reading index header: %w", err)
	}
	if magic != tableMagic {
		return nil, fmt.Errorf("core: bad magic %#x (not an index file)", magic)
	}
	ver, err := readU32()
	if err != nil {
		return nil, err
	}
	if ver != 1 && ver != tableVersion {
		return nil, fmt.Errorf("core: unsupported index version %d", ver)
	}
	universe, err := readU32()
	if err != nil {
		return nil, err
	}
	if int(universe) != data.UniverseSize() {
		return nil, fmt.Errorf("core: index universe %d != dataset universe %d", universe, data.UniverseSize())
	}
	txnCount, err := readU32()
	if err != nil {
		return nil, err
	}
	if int(txnCount) != data.Len() {
		return nil, fmt.Errorf("core: index built over %d transactions, dataset has %d", txnCount, data.Len())
	}
	rThresh, err := readU32()
	if err != nil {
		return nil, err
	}
	k, err := readU32()
	if err != nil {
		return nil, err
	}
	if k == 0 || k > signature.MaxK {
		return nil, fmt.Errorf("core: invalid signature cardinality %d", k)
	}

	sets := make([][]txn.Item, k)
	for j := range sets {
		count, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("core: signature %d: %w", j, err)
		}
		if count > uint64(universe) {
			return nil, fmt.Errorf("core: signature %d declares %d items", j, count)
		}
		items := make([]txn.Item, count)
		prev := uint64(0)
		for i := range items {
			d, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, fmt.Errorf("core: signature %d item %d: %w", j, i, err)
			}
			prev += d
			if prev >= uint64(universe) {
				return nil, fmt.Errorf("core: signature %d item outside universe", j)
			}
			items[i] = txn.Item(prev)
		}
		sets[j] = items
	}
	part, err := signature.NewPartition(int(universe), sets)
	if err != nil {
		return nil, fmt.Errorf("core: loaded partition invalid: %w", err)
	}

	entryCount, err := readU32()
	if err != nil {
		return nil, err
	}
	// Every entry indexes at least one transaction, so more entries
	// than transactions is corruption — and a hostile count must not
	// drive the map preallocation.
	if uint64(entryCount) > uint64(txnCount) {
		return nil, fmt.Errorf("core: %d entries for %d transactions", entryCount, txnCount)
	}
	t := &Table{
		part:           part,
		r:              int(rThresh),
		data:           data,
		byCoord:        make(map[signature.Coord]int32, entryCount),
		live:           data.Len(),
		flushThreshold: DefaultFlushThreshold,
		shared:         &tableShared{},
	}
	if t.r < 1 {
		return nil, fmt.Errorf("core: invalid activation threshold %d", t.r)
	}
	totalTIDs := 0
	for i := uint32(0); i < entryCount; i++ {
		coord, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("core: entry %d coord: %w", i, err)
		}
		if coord >= 1<<k {
			return nil, fmt.Errorf("core: entry %d coordinate %#x exceeds 2^K", i, coord)
		}
		count, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("core: entry %d count: %w", i, err)
		}
		if count == 0 || count > uint64(txnCount) {
			return nil, fmt.Errorf("core: entry %d has implausible count %d", i, count)
		}
		e := &Entry{Coord: coord, Count: int(count), tids: make([]txn.TID, count)}
		prev := uint64(0)
		for j := range e.tids {
			d, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, fmt.Errorf("core: entry %d tid %d: %w", i, j, err)
			}
			prev += d
			if prev >= uint64(txnCount) {
				return nil, fmt.Errorf("core: entry %d references TID %d beyond dataset", i, prev)
			}
			e.tids[j] = txn.TID(prev)
		}
		totalTIDs += int(count)
		if _, dup := t.byCoord[coord]; dup {
			return nil, fmt.Errorf("core: duplicate entry for coordinate %#x", coord)
		}
		t.byCoord[coord] = int32(len(t.entries))
		t.entries = append(t.entries, e)
	}
	if totalTIDs != data.Len() {
		return nil, fmt.Errorf("core: entries index %d transactions, dataset has %d", totalTIDs, data.Len())
	}
	t.slotOf = make([]int32, data.Len())
	for i, e := range t.entries {
		for _, id := range e.tids {
			t.slotOf[id] = int32(i)
		}
	}
	// Spot-check coordinate consistency with the dataset (first
	// transaction of each entry), catching a dataset/index mismatch.
	for _, e := range t.entries {
		if got := part.Coord(data.Get(e.tids[0]), t.r); got != e.Coord {
			return nil, fmt.Errorf("core: entry %#x inconsistent with dataset (transaction %d maps to %#x); wrong dataset?",
				e.Coord, e.tids[0], got)
		}
	}

	pageSize, err := readU32()
	if err != nil {
		return nil, err
	}
	// Version 1 predates the pageFormat word; its disk stores were
	// always v1-encoded.
	pageFormat := uint32(1)
	if ver >= 2 {
		pageFormat, err = readU32()
		if err != nil {
			return nil, err
		}
	}
	if pageSize > 0 {
		// Both recorded formats rebuild into the current layout.
		if pageFormat != 1 && pageFormat != uint32(pager.FormatV2) {
			return nil, fmt.Errorf("core: unknown page format %d", pageFormat)
		}
		rebuilt, err := Build(data, part, BuildOptions{
			ActivationThreshold: t.r,
			PageSize:            int(pageSize),
		})
		if err != nil {
			return nil, fmt.Errorf("core: rebuilding disk lists: %w", err)
		}
		return rebuilt, nil
	}
	t.dir = newDirectory(int(k), t.entries)
	return t, nil
}
