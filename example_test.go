package sigtable_test

import (
	"context"
	"fmt"

	"sigtable"
)

// Example demonstrates the core loop: build an index over synthetic
// market-basket data and run an exact nearest-neighbor query, with the
// similarity function chosen at query time.
func Example() {
	g, err := sigtable.NewGenerator(sigtable.GeneratorConfig{
		UniverseSize: 100, NumItemsets: 150, Seed: 4,
	})
	if err != nil {
		panic(err)
	}
	data := g.Dataset(5000)

	idx, err := sigtable.BuildIndex(data, sigtable.IndexOptions{SignatureCardinality: 10})
	if err != nil {
		panic(err)
	}

	target := data.Get(42)
	tid, value, err := idx.Nearest(context.Background(), target, sigtable.Jaccard{})
	if err != nil {
		panic(err)
	}
	fmt.Println(data.Get(tid).Equal(target), value)
	// Output: true 1
}

// ExampleIndex_Query shows early termination with the optimality
// certificate: a budget-capped search that tells you whether the
// answer is provably exact.
func ExampleIndex_Query() {
	g, _ := sigtable.NewGenerator(sigtable.GeneratorConfig{
		UniverseSize: 100, NumItemsets: 150, Seed: 5,
	})
	data := g.Dataset(5000)
	idx, _ := sigtable.BuildIndex(data, sigtable.IndexOptions{SignatureCardinality: 10})

	res, _ := idx.Query(context.Background(), data.Get(7), sigtable.Cosine{}, sigtable.QueryOptions{
		K:               3,
		MaxScanFraction: 0.05, // look at no more than 5% of the data
	})
	fmt.Println(len(res.Neighbors), res.Scanned <= 250)
	// Output: 3 true
}

// ExampleIndex_RangeQuery runs the paper's conjunctive range query:
// at least p items in common AND at most q items different.
func ExampleIndex_RangeQuery() {
	data := sigtable.NewDataset(10)
	data.Append(sigtable.NewTransaction(1, 2, 3))
	data.Append(sigtable.NewTransaction(1, 2, 3, 4))
	data.Append(sigtable.NewTransaction(7, 8, 9))
	idx, _ := sigtable.BuildIndex(data, sigtable.IndexOptions{
		Partition: [][]sigtable.Item{{0, 1, 2, 3, 4}, {5, 6, 7, 8, 9}},
	})

	const p, q = 3, 1 // >= 3 matches, hamming <= 1
	res, _ := idx.RangeQuery(context.Background(), sigtable.NewTransaction(1, 2, 3), []sigtable.RangeConstraint{
		{F: sigtable.MatchSimilarity{}, Threshold: p},
		{F: sigtable.HammingSimilarity{}, Threshold: 1.0 / (1 + q)},
	}, sigtable.SearchOptions{})
	fmt.Println(res.TIDs)
	// Output: [0 1]
}

// ExampleCheckMonotone vets a custom similarity function against the
// monotonicity contract the index's bounds require.
func ExampleCheckMonotone() {
	weighted, _ := sigtable.NewLinear(2, 0.5) // f = 2x - 0.5y
	fmt.Println(sigtable.CheckMonotone(weighted, 50, 50))
	// Output: <nil>
}
