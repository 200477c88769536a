package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"math/rand"
	"strings"
	"testing"

	"sigtable/internal/pager"
	"sigtable/internal/seqscan"
	"sigtable/internal/simfun"
	"sigtable/internal/txn"
)

func TestTableRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := randomDataset(rng, 400, 40)
	part := randomPartition(t, rng, 40, 6)
	orig := buildTestTable(t, d, part, BuildOptions{ActivationThreshold: 2})

	var buf bytes.Buffer
	n, err := orig.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}

	got, err := ReadTable(&buf, d)
	if err != nil {
		t.Fatal(err)
	}
	if got.K() != orig.K() || got.ActivationThreshold() != orig.ActivationThreshold() {
		t.Fatalf("K=%d r=%d, want K=%d r=%d", got.K(), got.ActivationThreshold(), orig.K(), orig.ActivationThreshold())
	}
	if got.NumEntries() != orig.NumEntries() {
		t.Fatalf("entries %d, want %d", got.NumEntries(), orig.NumEntries())
	}
	if got.Live() != orig.Live() {
		t.Fatalf("live %d, want %d", got.Live(), orig.Live())
	}
	// Loaded table must answer queries identically.
	for q := 0; q < 10; q++ {
		target := randomTarget(rng, 40)
		for _, f := range allSimFuncs() {
			a, err := orig.Query(context.Background(), target, f, QueryOptions{K: 3})
			if err != nil {
				t.Fatal(err)
			}
			b, err := got.Query(context.Background(), target, f, QueryOptions{K: 3})
			if err != nil {
				t.Fatal(err)
			}
			for i := range a.Neighbors {
				if a.Neighbors[i] != b.Neighbors[i] {
					t.Fatalf("%s: loaded table disagrees: %v vs %v", f.Name(), a.Neighbors, b.Neighbors)
				}
			}
		}
	}
}

func TestTableRoundTripDiskMode(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d := randomDataset(rng, 300, 30)
	part := randomPartition(t, rng, 30, 5)
	orig := buildTestTable(t, d, part, BuildOptions{PageSize: 256})

	var buf bytes.Buffer
	if _, err := orig.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTable(&buf, d)
	if err != nil {
		t.Fatal(err)
	}
	if got.Store() == nil || got.Store().PageSize() != 256 {
		t.Fatal("disk mode not restored")
	}
	target := randomTarget(rng, 30)
	_, want := seqscan.Nearest(d, target, simfun.Jaccard{})
	_, v, err := got.Nearest(context.Background(), target, simfun.Jaccard{})
	if err != nil {
		t.Fatal(err)
	}
	if v != want {
		t.Fatalf("loaded disk table value %v, want %v", v, want)
	}
}

func TestReadTableRejectsWrongDataset(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := randomDataset(rng, 200, 30)
	part := randomPartition(t, rng, 30, 5)
	orig := buildTestTable(t, d, part, BuildOptions{})

	var buf bytes.Buffer
	if _, err := orig.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}

	// Wrong universe.
	other := randomDataset(rng, 200, 31)
	if _, err := ReadTable(bytes.NewReader(buf.Bytes()), other); err == nil {
		t.Error("wrong universe accepted")
	}
	// Wrong length.
	if _, err := ReadTable(bytes.NewReader(buf.Bytes()), d.Slice(0, 100)); err == nil {
		t.Error("wrong length accepted")
	}
	// Same shape, different content: the coordinate spot-check must
	// catch it.
	shuffled := randomDataset(rand.New(rand.NewSource(99)), 200, 30)
	if _, err := ReadTable(bytes.NewReader(buf.Bytes()), shuffled); err == nil || !strings.Contains(err.Error(), "wrong dataset") {
		t.Errorf("mismatched dataset: err = %v", err)
	}
}

func TestReadTableRejectsGarbage(t *testing.T) {
	d := txn.NewDataset(10)
	d.Append(txn.New(1))
	if _, err := ReadTable(strings.NewReader("garbage bytes here padding"), d); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestReadTableTruncated(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	d := randomDataset(rng, 100, 20)
	orig := buildTestTable(t, d, randomPartition(t, rng, 20, 4), BuildOptions{})
	var buf bytes.Buffer
	if _, err := orig.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < buf.Len(); cut += 7 {
		if _, err := ReadTable(bytes.NewReader(buf.Bytes()[:buf.Len()-cut]), d); err == nil {
			t.Fatalf("truncation by %d bytes not detected", cut)
		}
	}
}

func TestWriteToRejectsTombstones(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d := randomDataset(rng, 100, 20)
	table := buildTestTable(t, d, randomPartition(t, rng, 20, 4), BuildOptions{})
	table, _ = table.DeleteSnapshot(5)
	var buf bytes.Buffer
	if _, err := table.WriteTo(&buf); err == nil {
		t.Fatal("table with tombstones persisted")
	}
	// After rebuild it persists fine.
	fresh, err := table.Rebuild()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fresh.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
}

// TestReadTableVersionEras: every SIGT image era loads into the
// current page layout. The current image records page format 2; a
// version-1 image — synthesized from the current writer's output by
// patching the version field and stripping the trailing pageFormat
// word — implies the retired v1 layout, as does a version-2 image
// recording page format 1. Pages are rebuilt from the dataset at load,
// so all three answer identically, and each re-persists as the current
// image byte for byte.
func TestReadTableVersionEras(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	d := randomDataset(rng, 300, 30)
	part := randomPartition(t, rng, 30, 5)
	orig := buildTestTable(t, d, part, BuildOptions{PageSize: 256})

	var buf bytes.Buffer
	if _, err := orig.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	cur := buf.Bytes()
	if got := binary.LittleEndian.Uint32(cur[len(cur)-4:]); got != uint32(pager.FormatV2) {
		t.Fatalf("current image records page format %d, want %d", got, pager.FormatV2)
	}

	// Era one back: version 1, no pageFormat word.
	v1era := append([]byte(nil), cur...)
	binary.LittleEndian.PutUint32(v1era[4:8], 1)
	v1era = v1era[:len(v1era)-4]
	// Version 2 recording the retired v1 page format.
	v1pages := append([]byte(nil), cur...)
	binary.LittleEndian.PutUint32(v1pages[len(v1pages)-4:], 1)

	target := randomTarget(rng, 30)
	ctx := context.Background()
	want, err := orig.Query(ctx, target, simfun.Jaccard{}, QueryOptions{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, era := range []struct {
		name string
		img  []byte
	}{{"current", cur}, {"version 1", v1era}, {"page format 1", v1pages}} {
		loaded, err := ReadTable(bytes.NewReader(era.img), d)
		if err != nil {
			t.Fatalf("%s image refused: %v", era.name, err)
		}
		if loaded.Store() == nil || loaded.Store().NumPages() == 0 {
			t.Fatalf("%s image loaded without pages", era.name)
		}
		got, err := loaded.Query(ctx, target, simfun.Jaccard{}, QueryOptions{K: 5})
		if err != nil {
			t.Fatal(err)
		}
		checkResultEqual(t, era.name, want, got)
		var again bytes.Buffer
		if _, err := loaded.WriteTo(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), cur) {
			t.Fatalf("%s image re-persists differently from the current image", era.name)
		}
	}

	// A from-the-future version is refused.
	future := append([]byte(nil), cur...)
	binary.LittleEndian.PutUint32(future[4:8], 99)
	if _, err := ReadTable(bytes.NewReader(future), d); err == nil {
		t.Fatal("version-99 image accepted")
	}

	// A version-2 image with a corrupt page format is refused.
	bad := append([]byte(nil), cur...)
	binary.LittleEndian.PutUint32(bad[len(bad)-4:], 7)
	if _, err := ReadTable(bytes.NewReader(bad), d); err == nil {
		t.Fatal("unknown page format accepted")
	}
}
