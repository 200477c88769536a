package sigtable

import (
	"bytes"
	"context"
	"encoding/binary"
	"math/rand"
	"strings"
	"testing"
)

// TestPageFormatIdentityPublic: the same index built in memory and on
// block-compressed pages answers every query identically, on both the
// single-table and the sharded engine. Only the page I/O profile may
// differ.
func TestPageFormatIdentityPublic(t *testing.T) {
	build := func(pageSize, shards int) Engine {
		t.Helper()
		opt := IndexOptions{SignatureCardinality: 9, PageSize: pageSize}
		if shards > 1 {
			opt.Shards = shards
			e, err := NewSharded(testDataset(t, 1500, 53), opt)
			if err != nil {
				t.Fatal(err)
			}
			return e
		}
		e, err := BuildIndex(testDataset(t, 1500, 53), opt)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	data := testDataset(t, 1500, 53)
	for _, shards := range []int{1, 3} {
		e1, e2 := build(0, shards), build(512, shards)
		rng := rand.New(rand.NewSource(int64(60 + shards)))
		for i := 0; i < 8; i++ {
			target := data.Get(TID(rng.Intn(1500)))
			for _, f := range []SimilarityFunc{Cosine{}, Jaccard{}} {
				sOpt := SearchOptions{K: 1 + rng.Intn(5)}
				if rng.Intn(2) == 0 {
					sOpt.Parallelism = 3
				}
				want, err := e1.Query(context.Background(), target, f, sOpt)
				if err != nil {
					t.Fatal(err)
				}
				got, err := e2.Query(context.Background(), target, f, sOpt)
				if err != nil {
					t.Fatal(err)
				}
				equalResults(t, "memory vs pages", want, got)
			}
		}
	}
}

// TestPageFormatRejected: options the page store cannot honour fail
// the build with an error instead of silently mapping to a default or
// panicking inside the pager — an out-of-range or retired (v1)
// PageFormat, and a page size below the pager's minimum.
func TestPageFormatRejected(t *testing.T) {
	d := testDataset(t, 200, 54)
	for _, c := range []struct {
		name string
		opt  IndexOptions
		want string
	}{
		{"PageFormat 9", IndexOptions{PageSize: 512, PageFormat: 9}, "page format"},
		{"PageFormat 1", IndexOptions{PageSize: 512, PageFormat: 1}, "page format"},
		{"PageSize 32", IndexOptions{PageSize: 32}, "page size"},
	} {
		opt := c.opt
		opt.SignatureCardinality = 6
		if _, err := BuildIndex(d, opt); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("BuildIndex(%s) = %v, want an error naming %q", c.name, err, c.want)
		}
		opt.Shards = 2
		if _, err := NewSharded(d, opt); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("NewSharded(%s) = %v, want an error naming %q", c.name, err, c.want)
		}
	}
}

// TestPersistEras loads all three on-disk eras of a single-table index
// file: the current envelope (version 2, core image with a page
// format), the version-1 envelope era (synthesized by patching the two
// version words and dropping the trailing pageFormat field), and the
// seed-era headerless layout (the same image with the envelope
// stripped). The older two record no page format, which means the
// retired v1 layout; they load into the current one. All three answer
// queries like the in-memory index.
func TestPersistEras(t *testing.T) {
	data := testDataset(t, 1000, 55)
	idx, err := BuildIndex(data, IndexOptions{SignatureCardinality: 9, PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	mem, err := BuildIndex(testDataset(t, 1000, 55), IndexOptions{SignatureCardinality: 9})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := idx.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	cur := buf.Bytes()
	if binary.LittleEndian.Uint32(cur[4:8]) != 2 {
		t.Fatalf("envelope version = %d, want 2", binary.LittleEndian.Uint32(cur[4:8]))
	}

	query := func(e Engine) Result {
		t.Helper()
		res, err := e.Query(context.Background(), data.Get(7), Cosine{}, SearchOptions{K: 5})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want := query(mem)
	equalResults(t, "built on pages", want, query(idx))

	// Current era.
	now, err := ReadIndex(bytes.NewReader(cur), data)
	if err != nil {
		t.Fatal(err)
	}
	equalResults(t, "current era", want, query(now))

	// Version-1 envelope era: envelope version 1, core image version 1
	// without the trailing pageFormat word. The envelope sits in bytes
	// [0:12], the core version word right after the SIGT magic at
	// [16:20].
	v1era := append([]byte(nil), cur...)
	binary.LittleEndian.PutUint32(v1era[4:8], 1)
	binary.LittleEndian.PutUint32(v1era[16:20], 1)
	v1era = v1era[:len(v1era)-4]
	legacy, err := ReadIndex(bytes.NewReader(v1era), data)
	if err != nil {
		t.Fatalf("version-1 envelope refused: %v", err)
	}
	equalResults(t, "v1 envelope era", want, query(legacy))

	// Seed era: no envelope at all.
	seed := v1era[12:]
	oldest, err := ReadIndex(bytes.NewReader(seed), data)
	if err != nil {
		t.Fatalf("headerless seed-era file refused: %v", err)
	}
	equalResults(t, "seed era", want, query(oldest))

	// ReadEngine accepts every era too.
	for _, img := range [][]byte{cur, v1era, seed} {
		if _, err := ReadEngine(bytes.NewReader(img), data); err != nil {
			t.Fatalf("ReadEngine refused an era: %v", err)
		}
	}

	// An envelope from the future is refused with the version in the
	// message.
	future := append([]byte(nil), cur...)
	binary.LittleEndian.PutUint32(future[4:8], 99)
	if _, err := ReadIndex(bytes.NewReader(future), data); err == nil || !strings.Contains(err.Error(), "version 99") {
		t.Fatalf("future envelope: %v", err)
	}
}
