package core

import (
	"context"

	"sigtable/internal/pager"
)

// prefetchHook builds the per-query callback that feeds the store's
// prefetch pipeline from a ranked entry ladder, or nil when prefetch is
// off for this query (no store, no prefetcher, or a negative depth
// request). The callback peeks the ladder's next depth slots — an
// approximation of the upcoming pop order that costs nothing to read —
// and offers each entry's page list once per query. requested follows
// QueryOptions.ReadaheadDepth.
//
// The returned closure is not safe for concurrent use; the serial and
// batch engines call it from their one scan goroutine.
func (t *Table) prefetchHook(ctx context.Context, requested int) func(src *entryLadder) {
	pf := t.prefetcher()
	if pf == nil {
		return nil
	}
	depth := pf.Readahead(requested)
	if depth <= 0 {
		return nil
	}
	issued := make([]bool, len(t.entries))
	return func(src *entryLadder) {
		var pages []pager.PageID
		src.Prefix(depth, func(re rankedEntry) {
			if issued[re.idx] || len(re.e.lists) == 0 {
				return
			}
			issued[re.idx] = true
			for _, l := range re.e.lists {
				pages = append(pages, l.Pages...)
			}
		})
		if len(pages) > 0 {
			pf.Request(ctx, pages)
		}
	}
}

func (t *Table) prefetcher() *pager.Prefetcher {
	if t.store == nil {
		return nil
	}
	return t.store.Prefetcher()
}
