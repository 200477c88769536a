// Range query: the paper's §2.1 example — find all transactions with
// at least p items in common with the target AND at most q items
// different. Both conditions are conjuncts over different similarity
// functions, which the signature table resolves in one pass with
// per-function optimistic-bound pruning.
package main

import (
	"context"
	"fmt"
	"log"

	"sigtable"
)

func main() {
	g, err := sigtable.NewGenerator(sigtable.GeneratorConfig{Seed: 5})
	if err != nil {
		log.Fatal(err)
	}
	data := g.Dataset(60000)

	idx, err := sigtable.BuildIndex(data, sigtable.IndexOptions{SignatureCardinality: 15})
	if err != nil {
		log.Fatal(err)
	}

	target := data.Get(123)
	fmt.Printf("target: %v (%d items)\n", target, target.Len())

	const (
		p = 5  // at least 5 items in common
		q = 12 // at most 12 items different
	)
	// "hamming <= q" in maximization form 1/(1+y) is ">= 1/(1+q)".
	res, err := idx.RangeQuery(context.Background(), target, []sigtable.RangeConstraint{
		{F: sigtable.MatchSimilarity{}, Threshold: p},
		{F: sigtable.HammingSimilarity{}, Threshold: 1.0 / float64(1+q)},
	}, sigtable.SearchOptions{})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\ntransactions with >= %d matches and <= %d differing items: %d\n", p, q, len(res.TIDs))
	for i, id := range res.TIDs {
		if i == 10 {
			fmt.Printf("  ... and %d more\n", len(res.TIDs)-10)
			break
		}
		t := data.Get(id)
		fmt.Printf("  #%-7d match=%2d hamming=%2d  %v\n",
			id, sigtable.Match(target, t), sigtable.Hamming(target, t), t)
	}
	fmt.Printf("\ncost: scanned %d of %d transactions, pruned %d table entries\n",
		res.Scanned, data.Len(), res.EntriesPruned)
}
