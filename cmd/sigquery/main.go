// Command sigquery builds a signature table over a dataset file and
// runs similarity queries against it.
//
//	sigquery -data baskets.dat -items 3,17,42 [-f cosine] [-k 5] [-K 15] \
//	         [-r 1] [-term 0.02] [-range 0.5] [-compare]
//
// -items gives the target transaction. -term enables early termination
// after scanning that fraction of the database. -range switches to a
// range query with the given threshold. -compare also runs the
// sequential-scan oracle and the inverted-index baseline and reports
// their costs.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"sigtable"
	"sigtable/internal/core"
)

func main() {
	var (
		dataPath  = flag.String("data", "", "dataset file (from sigdata)")
		items     = flag.String("items", "", "comma-separated target items")
		fname     = flag.String("f", "cosine", "similarity function: hamming|match|ratio|cosine|jaccard|dice")
		k         = flag.Int("k", 5, "neighbors to return")
		kCard     = flag.Int("K", 15, "signature cardinality")
		r         = flag.Int("r", 1, "activation threshold")
		term      = flag.Float64("term", 0, "early-termination scan fraction (0 = exact)")
		rangeT    = flag.Float64("range", 0, "run a range query with this similarity threshold instead of k-NN")
		compare   = flag.Bool("compare", false, "also run seqscan and inverted-index baselines")
		explain   = flag.Bool("explain", false, "print the query's bound landscape before running it")
		sortBy    = flag.String("sort", "bound", "entry visiting order: bound|coord")
		saveIndex = flag.String("saveindex", "", "persist the built index to this file")
		loadIndex = flag.String("loadindex", "", "load a previously saved index instead of building")
		stats     = flag.Bool("stats", false, "print index health: occupancy histogram and a consistency check")
	)
	flag.Parse()
	if *dataPath == "" || *items == "" {
		flag.Usage()
		os.Exit(2)
	}
	var order sigtable.SortCriterion
	switch *sortBy {
	case "bound":
		order = sigtable.ByOptimisticBound
	case "coord":
		order = sigtable.ByCoordSimilarity
	default:
		fatal("unknown -sort %q (want bound or coord)", *sortBy)
	}

	f, err := os.Open(*dataPath)
	if err != nil {
		fatal("%v", err)
	}
	data, err := sigtable.ReadDataset(f)
	f.Close()
	if err != nil {
		fatal("reading %s: %v", *dataPath, err)
	}

	target, err := parseItems(*items, data.UniverseSize())
	if err != nil {
		fatal("%v", err)
	}

	sim, err := sigtable.SimilarityByName(*fname)
	if err != nil {
		fatal("%v", err)
	}

	start := time.Now()
	var idx *sigtable.Index
	if *loadIndex != "" {
		in, err := os.Open(*loadIndex)
		if err != nil {
			fatal("%v", err)
		}
		idx, err = sigtable.ReadIndex(in, data)
		in.Close()
		if err != nil {
			fatal("loading index %s: %v", *loadIndex, err)
		}
		fmt.Printf("index: loaded %s — %d transactions, K=%d, %d occupied entries (%v)\n",
			*loadIndex, idx.Len(), idx.K(), idx.NumEntries(), time.Since(start).Round(time.Millisecond))
	} else {
		idx, err = sigtable.BuildIndex(data, sigtable.IndexOptions{
			SignatureCardinality: *kCard,
			ActivationThreshold:  *r,
		})
		if err != nil {
			fatal("building index: %v", err)
		}
		fmt.Printf("index: %d transactions, K=%d, %d occupied entries (built in %v)\n",
			idx.Len(), idx.K(), idx.NumEntries(), time.Since(start).Round(time.Millisecond))
	}
	if *saveIndex != "" {
		out, err := os.Create(*saveIndex)
		if err != nil {
			fatal("%v", err)
		}
		if _, err := idx.WriteTo(out); err != nil {
			fatal("saving index: %v", err)
		}
		if err := out.Close(); err != nil {
			fatal("closing %s: %v", *saveIndex, err)
		}
		fmt.Printf("index saved to %s\n", *saveIndex)
	}

	if *stats {
		o := idx.Table().Occupancy()
		fmt.Printf("occupancy: %d entries of %d cells (%.4f%%), mean %.1f txns/entry, max %d\n",
			o.Entries, o.Cells, 100*float64(o.Entries)/float64(o.Cells), o.MeanCount, o.MaxCount)
		fmt.Print(core.FormatHistogram(idx.Table().OccupancyHistogram()))
		if err := idx.Validate(); err != nil {
			fatal("index failed validation: %v", err)
		}
		fmt.Println("consistency check: ok")
	}

	if *explain {
		fmt.Println(idx.Explain(target, sim))
	}

	if *rangeT != 0 {
		res, err := idx.RangeQuery(context.Background(), target, []sigtable.RangeConstraint{{F: sim, Threshold: *rangeT}}, sigtable.SearchOptions{})
		if err != nil {
			fatal("range query: %v", err)
		}
		fmt.Printf("range query %s >= %v: %d matches (scanned %d, pruned %d entries)\n",
			*fname, *rangeT, len(res.TIDs), res.Scanned, res.EntriesPruned)
		for i, id := range res.TIDs {
			if i == 10 {
				fmt.Printf("  ... and %d more\n", len(res.TIDs)-10)
				break
			}
			fmt.Printf("  #%d %v\n", id, data.Get(id))
		}
		return
	}

	start = time.Now()
	res, err := idx.Query(context.Background(), target, sim, sigtable.QueryOptions{K: *k, MaxScanFraction: *term, SortBy: order})
	if err != nil {
		fatal("query: %v", err)
	}
	elapsed := time.Since(start)

	fmt.Printf("query %v under %s:\n", target, *fname)
	for _, c := range res.Neighbors {
		fmt.Printf("  #%-8d value=%.4f  %v\n", c.TID, c.Value, data.Get(c.TID))
	}
	fmt.Printf("scanned %d/%d transactions (pruning %.2f%%), %d entries pruned, certified=%v, %v\n",
		res.Scanned, data.Len(), res.PruningEfficiency(data.Len()), res.EntriesPruned, res.Certified, elapsed.Round(time.Microsecond))

	if *compare {
		start = time.Now()
		best := sigtable.ScanKNearest(data, target, sim, *k)
		fmt.Printf("seqscan oracle: best value %.4f (TID %d) in %v\n",
			best[0].Value, best[0].TID, time.Since(start).Round(time.Microsecond))

		inv := sigtable.BuildInvertedIndex(data, sigtable.InvertedIndexOptions{})
		start = time.Now()
		cands, st := inv.KNearest(target, sim, *k)
		fmt.Printf("inverted index: best value %.4f (TID %d), accessed %.2f%% of transactions (%.2f%% of pages) in %v\n",
			cands[0].Value, cands[0].TID, 100*st.Fraction, 100*st.PageFraction, time.Since(start).Round(time.Microsecond))
	}
}

func parseItems(s string, universe int) (sigtable.Transaction, error) {
	parts := strings.Split(s, ",")
	items := make([]sigtable.Item, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseUint(strings.TrimSpace(p), 10, 32)
		if err != nil {
			return nil, fmt.Errorf("bad item %q: %v", p, err)
		}
		if int(v) >= universe {
			return nil, fmt.Errorf("item %d outside universe of size %d", v, universe)
		}
		items = append(items, sigtable.Item(v))
	}
	return sigtable.NewTransaction(items...), nil
}

func fatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "sigquery: "+format+"\n", args...)
	os.Exit(1)
}
