package pagestore

import (
	"context"

	"repro/internal/bitvec"
	"repro/internal/core"
	"repro/internal/iostat"
	"repro/internal/obs"
)

// PagedIndex charges an encoded bitmap index's vector reads against a
// simulated buffer cache: each query asks the index which B_i its reduced
// retrieval expression touches and faults the corresponding page runs.
// Every page request also lands in a per-segment Heatmap, so observed
// access skew is available at /debug/heatmap once RegisterHeatmap runs.
type PagedIndex[V comparable] struct {
	ix     *core.Index[V]
	cache  *Cache
	layout Layout
	heat   *Heatmap
}

// NewPagedIndex wraps an index with a buffer cache of the given page
// capacity and page size.
func NewPagedIndex[V comparable](ix *core.Index[V], cachePages, pageSize int) *PagedIndex[V] {
	layout := NewLayout(ix.Len(), pageSize)
	return &PagedIndex[V]{
		ix:     ix,
		cache:  NewCache(cachePages),
		layout: layout,
		heat:   NewHeatmap(ix.K(), layout),
	}
}

// Index returns the wrapped index.
func (p *PagedIndex[V]) Index() *core.Index[V] { return p.ix }

// Cache returns the buffer cache for inspection.
func (p *PagedIndex[V]) Cache() *Cache { return p.cache }

// Heat returns the page-access heatmap.
func (p *PagedIndex[V]) Heat() *Heatmap { return p.heat }

// RegisterHeatmap publishes this index's heatmap at /debug/heatmap
// under name. Call UnregisterHeatmap when retiring the index.
func (p *PagedIndex[V]) RegisterHeatmap(name string) {
	obs.RegisterHeatmapSource(name, func() any { return p.heat.Report() })
}

// UnregisterHeatmap removes the /debug/heatmap registration.
func (p *PagedIndex[V]) UnregisterHeatmap(name string) {
	obs.UnregisterHeatmapSource(name)
}

// chargeVars faults the pages of every vector in the vars bitmask and
// returns (hits, misses).
func (p *PagedIndex[V]) chargeVars(vars uint32) (hits, misses int) {
	per := p.layout.PagesPerVector()
	for i := 0; i < p.ix.K(); i++ {
		if vars&(1<<uint(i)) == 0 {
			continue
		}
		for pg := 0; pg < per; pg++ {
			if p.cache.Touch(PageID{Vector: i, Page: pg}) {
				hits++
				p.heat.record(i, pg, false)
			} else {
				misses++
				p.heat.record(i, pg, true)
			}
		}
	}
	return hits, misses
}

// In evaluates the selection, charging page I/O for the vectors its
// reduced expression reads. The returned PageStats are for this call.
// The evaluation itself goes through the wrapped index's fused
// single-pass kernel; the page charge is computed from the expression's
// variable set, which the fused path reads exactly once each.
func (p *PagedIndex[V]) In(values []V) (*bitvec.Vector, iostat.Stats, Stats) {
	return p.InContext(context.Background(), values)
}

// InContext is In with trace attribution: when the context carries a
// live span, the page-fault charge runs under a child span named
// "ebi.page.fetch" annotated with this call's hits and misses, so page
// I/O shows up in the query's span tree. Without a span in the context
// it is exactly In. The selection is reduced once: the charge and the
// evaluation read the index's one cached reduction of the value list.
func (p *PagedIndex[V]) InContext(ctx context.Context, values []V) (*bitvec.Vector, iostat.Stats, Stats) {
	fsp := obs.SpanFromContext(ctx).StartChild("ebi.page.fetch")
	hits, misses := p.chargeVars(p.ix.ExprFor(values).Vars())
	if fsp != nil {
		fsp.SetAttr("page_hits", hits)
		fsp.SetAttr("page_misses", misses)
		fsp.End()
	}
	rows, st := p.ix.In(values)
	return rows, st, Stats{Hits: hits, Misses: misses}
}

// Eq evaluates a point selection with page accounting.
func (p *PagedIndex[V]) Eq(v V) (*bitvec.Vector, iostat.Stats, Stats) {
	return p.In([]V{v})
}
