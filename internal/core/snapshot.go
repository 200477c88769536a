package core

import (
	"fmt"
	"time"

	"sigtable/internal/pager"
	"sigtable/internal/signature"
	"sigtable/internal/txn"
)

// Snapshot mutation protocol. InsertSnapshot and DeleteSnapshot never
// modify the receiver: each returns a derived Table that shares all
// untouched structure with it — the dataset's transaction storage, the
// unmutated entries, the directory's bit rows, the page store — and
// copies only what the mutation logically changes: the entries spine
// (one pointer per slot), the mutated entry's header, and for novel
// coordinates the coordinate map and the directory's bit rows. A
// publishing layer (the public Index) stores the result in an atomic
// pointer; readers load a table once and run against it with no lock,
// seeing a consistent version forever.
//
// Writers must be serialized externally and must always derive from
// the newest snapshot. That discipline is what makes the
// shared-backing appends safe: the dataset, tombstone, slot-memo and
// overflow slices are extended only at monotonically increasing
// indexes that no reader of an older snapshot addresses.
//
// Cache effects are scoped to the mutated entry: the pager's pages are
// write-once, so decodes of other entries' lists cannot have gone
// stale, and only the mutated entry's list segments are evicted
// (Store.InvalidateList) rather than emptying the whole decode cache on
// every write.

// InsertSnapshot adds a transaction, returning a derived table that
// contains it and the assigned TID. The receiver is unchanged and
// remains fully queryable. In disk mode, when the mutated entry's
// overflow reaches the flush threshold it is encoded onto fresh pages
// appended to the entry's list segments before the snapshot is
// returned.
func (t *Table) InsertSnapshot(tr txn.Transaction) (*Table, txn.TID) {
	nt := new(Table)
	*nt = *t
	nt.version = t.version + 1

	data, id := t.data.AppendShared(tr)
	nt.data = data
	if t.deleted != nil {
		nt.deleted = append(t.deleted, false)
	}

	coord := t.part.Coord(tr, t.r)
	slot, ok := t.byCoord[coord]
	var e *Entry
	if !ok {
		// Novel coordinate: new slot at the end of the spine, plus
		// copy-on-write of the coordinate map and the directory (its
		// bit words are shared by neighboring slots live readers are
		// ranking over).
		slot = int32(len(t.entries))
		e = &Entry{Coord: coord, Count: 1, tids: []txn.TID{id}}
		entries := make([]*Entry, len(t.entries)+1)
		copy(entries, t.entries)
		entries[slot] = e
		nt.entries = entries
		byCoord := make(map[signature.Coord]int32, len(t.byCoord)+1)
		for c, s := range t.byCoord {
			byCoord[c] = s
		}
		byCoord[coord] = slot
		nt.byCoord = byCoord
		nt.dir = t.dir.withSlot(coord)
	} else {
		old := t.entries[slot]
		e = &Entry{
			Coord: coord,
			Count: old.Count + 1,
			tids:  append(old.tids, id),
			lists: old.lists,
		}
		entries := make([]*Entry, len(t.entries))
		copy(entries, t.entries)
		entries[slot] = e
		nt.entries = entries
	}
	nt.slotOf = append(t.slotOf, slot)
	nt.live = t.live + 1

	if t.store != nil {
		t.shared.overflowTxns.Add(1)
		if nt.flushThreshold > 0 && len(e.tids) >= nt.flushThreshold {
			nt.flushOverflow(e)
		}
		for _, l := range e.lists {
			t.store.InvalidateList(l)
		}
	}
	return nt, id
}

// DeleteSnapshot tombstones a transaction, returning the derived table
// and whether the TID was present and live. When it was not, the
// receiver itself is returned.
func (t *Table) DeleteSnapshot(id txn.TID) (*Table, bool) {
	if int(id) >= t.data.Len() || (t.deleted != nil && t.deleted[id]) {
		return t, false
	}
	nt := new(Table)
	*nt = *t
	nt.version = t.version + 1

	// The tombstone array is the one structure a delete cannot extend
	// monotonically — it flips a bit readers of older snapshots are
	// scanning — so it is copied whole. It is one byte per
	// transaction, a memcpy, next to which the seed's per-delete
	// coordinate recomputation was already comparable.
	deleted := make([]bool, t.data.Len())
	copy(deleted, t.deleted)
	deleted[id] = true
	nt.deleted = deleted

	slot := t.slotOf[id]
	old := t.entries[slot]
	e := &Entry{Coord: old.Coord, Count: old.Count - 1, tids: old.tids, lists: old.lists}
	entries := make([]*Entry, len(t.entries))
	copy(entries, t.entries)
	entries[slot] = e
	nt.entries = entries
	nt.live = t.live - 1

	if t.store != nil {
		for _, l := range e.lists {
			t.store.InvalidateList(l)
		}
	}
	return nt, true
}

// flushOverflow encodes the entry's in-memory overflow onto fresh
// pages appended as a new list segment, emptying the overflow. Called
// by InsertSnapshot on the entry copy it owns, before the snapshot is
// published, so no reader ever observes the intermediate state; the
// pages are fresh (the store's write-once discipline means a flush
// never rewrites a page a concurrent reader could be decoding).
// Tombstoned TIDs may be flushed with the rest — they are filtered
// above the pager, exactly as they were in the overflow.
func (t *Table) flushOverflow(e *Entry) {
	start := time.Now()
	txns := make([]txn.Transaction, len(e.tids))
	for i, id := range e.tids {
		txns[i] = t.data.Get(id)
	}
	list, err := t.store.WriteList(e.tids, txns)
	if err != nil {
		// The overflow came from validated Appends; an encode failure
		// means internal corruption, same contract as scanEntry.
		panic(fmt.Sprintf("core: flushing entry %#x overflow: %v", e.Coord, err))
	}
	// Seal immediately: the segment must be readable as soon as the
	// snapshot publishes, and the v2 tail page cannot stay open across
	// concurrent reads.
	t.store.Seal()
	lists := make([]pager.List, len(e.lists)+1)
	copy(lists, e.lists)
	lists[len(e.lists)] = list
	e.lists = lists
	e.tids = nil
	t.shared.flushes.Add(1)
	t.shared.flushNanos.Add(time.Since(start).Nanoseconds())
}

// OverflowStats reports the overflow-flush accounting of the table's
// lineage. Transactions, Flushes and FlushSeconds are monotone across
// snapshots and rebuilds; Pending is the receiver's current count of
// unflushed overflow transactions (always 0 in memory mode, where tids
// are the primary storage).
type OverflowStats struct {
	Transactions uint64  // transactions ever appended to disk-mode overflow
	Pending      int     // transactions currently awaiting a flush
	Flushes      uint64  // overflow flushes performed
	FlushSeconds float64 // cumulative wall time spent flushing
}

// OverflowStats snapshots the lineage's overflow counters.
func (t *Table) OverflowStats() OverflowStats {
	st := OverflowStats{
		Transactions: t.shared.overflowTxns.Load(),
		Flushes:      t.shared.flushes.Load(),
		FlushSeconds: float64(t.shared.flushNanos.Load()) / 1e9,
	}
	if t.store != nil {
		for _, e := range t.entries {
			st.Pending += len(e.tids)
		}
	}
	return st
}

// FlushThreshold reports the resolved overflow flush threshold
// (negative = flushing disabled).
func (t *Table) FlushThreshold() int { return t.flushThreshold }
