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

// TestReadTableVersionEras: a version-1 SIGT image — synthesized from
// the current writer's output by patching the version field and
// stripping the trailing pageFormat word — still loads, and its disk
// lists rebuild under the v1 page layout that era's writers produced.
// The current image round-trips with its page format intact.
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

	now, err := ReadTable(bytes.NewReader(cur), d)
	if err != nil {
		t.Fatal(err)
	}
	if got := now.Store().Format(); got != pager.FormatV2 {
		t.Fatalf("current-era load format = %v, want v2", got)
	}

	// Era one back: version 1, no pageFormat word.
	old := append([]byte(nil), cur...)
	binary.LittleEndian.PutUint32(old[4:8], 1)
	old = old[:len(old)-4]
	legacy, err := ReadTable(bytes.NewReader(old), d)
	if err != nil {
		t.Fatalf("version-1 image refused: %v", err)
	}
	if got := legacy.Store().Format(); got != pager.FormatV1 {
		t.Fatalf("version-1 load format = %v, want v1", got)
	}

	// Both eras answer identically.
	target := randomTarget(rng, 30)
	ctx := context.Background()
	want, err := now.Query(ctx, target, simfun.Jaccard{}, QueryOptions{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	got, err := legacy.Query(ctx, target, simfun.Jaccard{}, QueryOptions{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	checkResultEqual(t, "era", want, got)

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
