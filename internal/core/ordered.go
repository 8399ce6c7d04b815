package core

import (
	"cmp"
	"fmt"
	"sort"

	"repro/internal/bitvec"
	"repro/internal/boolmin"
	"repro/internal/encoding"
	"repro/internal/iostat"
)

// OrderedIndex is an encoded bitmap index whose mapping is total-order
// preserving (Section 2.3), so a range predicate "lo <= A <= hi" selects
// one code interval. Range covers that interval with aligned subcubes
// (boolmin.IntervalCover) instead of rewriting it into an IN-list and
// minimizing: each subcube is a retrieval function reading only its fixed
// high bits, and the cover runs through the fused kernel like every other
// selection, reading at most k vectors.
type OrderedIndex[V cmp.Ordered] struct {
	ix     *Index[V]
	sorted []V                  // domain in ascending value order
	from   *encoding.Mapping[V] // the mapping sorted was read from
}

// BuildOrdered constructs an order-preserving encoded bitmap index over
// the column. favored, when non-empty, lists IN-subdomains to optimize the
// encoding for (the paper's Figure 6 construction); the order-preserving
// property always holds regardless.
func BuildOrdered[V cmp.Ordered](column []V, favored [][]V, searchOpt *encoding.SearchOptions) (*OrderedIndex[V], error) {
	seen := make(map[V]bool)
	var domain []V
	for _, v := range column {
		if !seen[v] {
			seen[v] = true
			domain = append(domain, v)
		}
	}
	if len(domain) == 0 {
		return nil, fmt.Errorf("core: empty column")
	}
	sort.Slice(domain, func(i, j int) bool { return domain[i] < domain[j] })

	// Code 0 stays reserved for void tuples (Theorem 2.1), so the search
	// runs with ReserveZeroCode and value codes start at 1.
	k := encoding.BitsFor(len(domain) + 1)
	var mapping *encoding.Mapping[V]
	if len(favored) > 0 {
		// One spare bit gives the optimizer don't-care room (footnote 3);
		// without it, a favored subdomain often cannot reach a subcube
		// once code 0 is off limits.
		if k2 := encoding.BitsFor(len(domain)) + 1; k2 > k {
			k = k2
		}
		var so encoding.SearchOptions
		if searchOpt != nil {
			so = *searchOpt
		}
		so.ReserveZeroCode = true
		if !so.UseDontCares {
			so.UseDontCares = true
		}
		m, err := encoding.OptimizeOrderPreserving(domain, favored, k, &so)
		if err != nil {
			return nil, err
		}
		mapping = m
	} else {
		mapping = encoding.NewMapping[V](k)
		for i, v := range domain {
			mapping.MustAdd(v, uint32(i+1))
		}
	}

	ix, err := New(domain, &Options[V]{Mapping: mapping})
	if err != nil {
		return nil, err
	}
	for _, v := range column {
		if err := ix.Append(v); err != nil {
			return nil, err
		}
	}
	return &OrderedIndex[V]{ix: ix, sorted: domain, from: ix.mapping}, nil
}

// OrderedFrom wraps an existing index whose mapping is total-order
// preserving, such as one over a custom mapping with code gaps. It fails
// when the mapping is not order preserving — the interval-cover range
// algorithm would silently return wrong rows otherwise.
func OrderedFrom[V cmp.Ordered](ix *Index[V]) (*OrderedIndex[V], error) {
	sorted := ix.mapping.Values() // ordered by code
	for i := 1; i < len(sorted); i++ {
		if !(sorted[i-1] < sorted[i]) {
			return nil, fmt.Errorf("core: mapping is not total-order preserving (%v before %v)",
				sorted[i-1], sorted[i])
		}
	}
	return &OrderedIndex[V]{ix: ix, sorted: sorted, from: ix.mapping}, nil
}

// Index exposes the underlying encoded bitmap index (for Eq, In,
// aggregates, group sets).
func (oi *OrderedIndex[V]) Index() *Index[V] { return oi.ix }

// Len returns the number of rows.
func (oi *OrderedIndex[V]) Len() int { return oi.ix.Len() }

// K returns the number of bitmap vectors.
func (oi *OrderedIndex[V]) K() int { return oi.ix.K() }

// Range returns rows with lo <= value <= hi. While the domain is the
// build's, the values in range hold one interval of codes [cl, ch]. Range
// widens it across codes no row can hold — free codes, and the void code 0
// while no row is deleted — so the cover's blocks can only grow, splits it
// around the NULL code when that falls inside, and evaluates the
// interval's aligned-subcube cover through the index's view like any
// other selection. It reads the cover's distinct variables: at most k
// vectors. Once appends have grown the domain, or the index holds another
// mapping (Index.Reencode need not preserve order), Range selects the
// mapped values in range as an IN-list instead.
func (oi *OrderedIndex[V]) Range(lo, hi V) (*bitvec.Vector, iostat.Stats) {
	return oi.ix.View().eval(oi.rangeProgram(lo, hi), 1, nil)
}

// PredictRangeStats returns the exact Stats Range(lo, hi) would report,
// from the encoding alone.
func (oi *OrderedIndex[V]) PredictRangeStats(lo, hi V) iostat.Stats {
	return predictProgram(oi.rangeProgram(lo, hi), oi.ix.Len())
}

// rangeProgram returns the program Range evaluates: the interval cover,
// the constant false when no domain value lies in [lo, hi], or the IN-list
// selection once the domain has grown or the mapping was replaced.
func (oi *OrderedIndex[V]) rangeProgram(lo, hi V) *boolmin.Program {
	ix := oi.ix
	k := ix.K()
	if ix.mapping != oi.from || ix.mapping.Len() != len(oi.sorted) {
		// A value appended since the build holds whichever code was free,
		// and a re-encode may assign codes in any order, so the values in
		// range need not fill one code interval: select them as an
		// IN-list through the code-set cache.
		var in []V
		for _, v := range ix.mapping.Values() {
			if lo <= v && v <= hi {
				in = append(in, v)
			}
		}
		return ix.selection(in).prog
	}
	i := sort.Search(len(oi.sorted), func(i int) bool { return oi.sorted[i] >= lo })
	j := sort.Search(len(oi.sorted), func(i int) bool { return oi.sorted[i] > hi })
	if i >= j {
		return boolmin.Compile(boolmin.Expr{K: k})
	}
	cl, _ := ix.mapping.CodeOf(oi.sorted[i])
	ch, _ := ix.mapping.CodeOf(oi.sorted[j-1])
	// The codes a row can hold are the domain's value codes, the NULL code
	// and, once a row is deleted, 0. Widen to just inside the nearest such
	// codes below cl and above ch.
	below, above := int64(-1), int64(1)<<uint(k)
	if i > 0 {
		c, _ := ix.mapping.CodeOf(oi.sorted[i-1])
		below = int64(c)
	}
	if j < len(oi.sorted) {
		c, _ := ix.mapping.CodeOf(oi.sorted[j])
		above = int64(c)
	}
	if ix.deleted > 0 {
		below = max(below, 0)
	}
	if null := int64(ix.nullCode); ix.hasNullCode && null < int64(cl) {
		below = max(below, null)
	} else if ix.hasNullCode && null > int64(ch) {
		above = min(above, null)
	} // a NULL code inside [cl, ch] is split out below
	cl, ch = uint32(below+1), uint32(above-1)
	null := ix.nullCode
	if !ix.hasNullCode || null < cl || null > ch {
		return boolmin.Compile(boolmin.IntervalCover(k, cl, ch))
	}
	e := boolmin.Expr{K: k}
	if null > cl {
		e.Cubes = boolmin.IntervalCover(k, cl, null-1).Cubes
	}
	if null < ch {
		e.Cubes = append(e.Cubes, boolmin.IntervalCover(k, null+1, ch).Cubes...)
	}
	return boolmin.Compile(e)
}

// RangeViaReduction answers the same query by rewriting the range into an
// IN-list of the mapped values in [lo, hi] and minimizing the retrieval
// expression — the paper's default path, which examples/rangescan compares
// against the interval-cover algorithm.
func (oi *OrderedIndex[V]) RangeViaReduction(lo, hi V) (*bitvec.Vector, iostat.Stats) {
	var in []V
	for _, v := range oi.ix.Values() {
		if lo <= v && v <= hi {
			in = append(in, v)
		}
	}
	return oi.ix.In(in)
}
