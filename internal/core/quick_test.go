package core

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"sigtable/internal/seqscan"
)

// TestQuickBranchAndBoundExact is the repository's central property,
// stated through testing/quick: for arbitrary seeds (hence arbitrary
// datasets, partitions, activation thresholds, targets and k), the
// branch-and-bound answer value equals the brute-force optimum under
// every built-in similarity function.
func TestQuickBranchAndBoundExact(t *testing.T) {
	prop := func(seed int64, kRaw, rRaw, fRaw, kNNRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		universe := 15 + rng.Intn(30)
		d := randomDataset(rng, 100+rng.Intn(200), universe)
		part := randomPartition(t, rng, universe, 2+int(kRaw)%6)
		table, err := Build(d, part, BuildOptions{ActivationThreshold: 1 + int(rRaw)%2})
		if err != nil {
			return false
		}
		fs := allSimFuncs()
		f := fs[int(fRaw)%len(fs)]
		kNN := 1 + int(kNNRaw)%8
		target := randomTarget(rng, universe)

		res, err := table.Query(context.Background(), target, f, QueryOptions{K: kNN})
		if err != nil {
			return false
		}
		want := seqscan.KNearest(d, target, f, kNN)
		if len(res.Neighbors) != len(want) {
			return false
		}
		for i := range want {
			if res.Neighbors[i].Value != want[i].Value {
				return false
			}
		}
		return res.Certified
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickCertificateSound: whenever an early-terminated query claims
// Certified, its answer is the true optimum.
func TestQuickCertificateSound(t *testing.T) {
	prop := func(seed int64, fracRaw, fRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		d := randomDataset(rng, 300, 25)
		part := randomPartition(t, rng, 25, 5)
		table, err := Build(d, part, BuildOptions{})
		if err != nil {
			return false
		}
		fs := allSimFuncs()
		f := fs[int(fRaw)%len(fs)]
		frac := 0.005 + float64(fracRaw)/255*0.2
		target := randomTarget(rng, 25)

		res, err := table.Query(context.Background(), target, f, QueryOptions{K: 1, MaxScanFraction: frac})
		if err != nil || len(res.Neighbors) == 0 {
			return false
		}
		_, want := seqscan.Nearest(d, target, f)
		if res.Certified && res.Neighbors[0].Value != want {
			return false
		}
		// The certificate gap always brackets the optimum.
		return res.BestPossible >= want-1e-9 && res.Neighbors[0].Value <= want
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBoundsPerEntry(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	d := randomDataset(rng, 100, 50)
	part := randomPartition(b, rng, 50, 15)
	table, err := Build(d, part, BuildOptions{})
	if err != nil {
		b.Fatal(err)
	}
	target := randomTarget(rng, 50)
	overlaps := part.Overlaps(target, nil)
	bd := table.newBounder(overlaps)
	coords := make([]uint64, 64)
	for i := range coords {
		coords[i] = rng.Uint64() & ((1 << 15) - 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bd.bounds(coords[i%len(coords)])
	}
}
