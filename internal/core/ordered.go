package core

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"repro/internal/bitvec"
	"repro/internal/boolmin"
	"repro/internal/encoding"
	"repro/internal/iostat"
)

// OrderedIndex is an encoded bitmap index built over a total-order
// preserving mapping (Section 2.3). It holds nothing but the index: its
// reads are the index's, and Range is core.Range, which takes the interval
// cover while the code space stays ordered.
type OrderedIndex[V cmp.Ordered] struct{ ix *Index[V] }

// BuildOrdered constructs an order-preserving encoded bitmap index over
// the column. favored, when non-empty, lists IN-subdomains to optimize the
// encoding for (the paper's Figure 6 construction); the order-preserving
// property always holds regardless. Without favored subdomains it is
// Build, coding the domain in value order for every ordered V.
func BuildOrdered[V cmp.Ordered](column []V, favored [][]V, searchOpt *encoding.SearchOptions) (*OrderedIndex[V], error) {
	if len(column) == 0 {
		return nil, fmt.Errorf("core: empty column")
	}
	var opt Options[V]
	if len(favored) > 0 {
		domain := slices.Clone(column)
		slices.Sort(domain)
		domain = slices.Compact(domain)
		// Code 0 stays reserved for void tuples (Theorem 2.1), so the
		// search runs with ReserveZeroCode and value codes start at 1. One
		// spare bit gives the optimizer don't-care room (footnote 3);
		// without it, a favored subdomain often cannot reach a subcube
		// once code 0 is off limits.
		k := max(encoding.BitsFor(len(domain)+1), encoding.BitsFor(len(domain))+1)
		var so encoding.SearchOptions
		if searchOpt != nil {
			so = *searchOpt
		}
		so.ReserveZeroCode = true
		so.UseDontCares = true
		m, err := encoding.OptimizeOrderPreserving(domain, favored, k, &so)
		if err != nil {
			return nil, err
		}
		opt.Mapping = m
	}
	ix, err := build(column, nil, &opt, slices.Sort[[]V])
	if err != nil {
		return nil, err
	}
	return &OrderedIndex[V]{ix: ix}, nil
}

// Index exposes the underlying encoded bitmap index.
func (oi *OrderedIndex[V]) Index() *Index[V] { return oi.ix }

// K returns the number of bitmap vectors.
func (oi *OrderedIndex[V]) K() int { return oi.ix.K() }

// View returns the index's read view.
func (oi *OrderedIndex[V]) View() *View[V] { return oi.ix.View() }

// TheoreticalMinVectors returns the index's Theorem 2.2/2.3 floor (see
// Index).
func (oi *OrderedIndex[V]) TheoreticalMinVectors(delta int) int {
	return oi.ix.TheoreticalMinVectors(delta)
}

// Range returns rows with lo <= value <= hi (see core.Range).
func (oi *OrderedIndex[V]) Range(lo, hi V) (*bitvec.Vector, iostat.Stats) {
	return Range(oi.ix.View(), lo, hi, 1, nil)
}

// orderedDomain returns the code space's domain in code order and whether
// its values ascend with their codes: the total-order preserving property
// of Section 2.3, worked out once per code space. It holds after any
// build over such a mapping and survives appends of new values that take
// a free code between their neighbours' (a new maximum above every code,
// say); any other new value or re-encoding ends it with its code space.
func orderedDomain[V cmp.Ordered](ix *Index[V]) (cs *codeSpace[V], ordered bool) {
	cs = ix.space()
	cs.orderOnce.Do(func() {
		cs.ordered = true
		for i := 1; i < len(cs.domain); i++ {
			if !(cs.domain[i-1] < cs.domain[i]) {
				cs.ordered = false
				break
			}
		}
	})
	return cs, cs.ordered
}

// rangeSelection returns the values in [lo, hi] in code order and the
// program that selects them. On an ordered code space those values hold
// one code interval, and the program is its aligned-subcube cover
// (boolmin.IntervalCover: at most 2(k-1) cubes reading at most k vectors,
// no minimization). Otherwise it is the IN list's cached reduction, the
// paper's discrete-domain rewriting.
func rangeSelection[V cmp.Ordered](ix *Index[V], lo, hi V) ([]V, *boolmin.Program) {
	cs, ordered := orderedDomain(ix)
	if !ordered {
		var in []V
		var codes []uint32
		for i, v := range cs.domain {
			if lo <= v && v <= hi {
				in = append(in, v)
				codes = append(codes, cs.codes[i])
			}
		}
		return in, ix.reduce(codes).prog
	}
	i := sort.Search(len(cs.domain), func(i int) bool { return cs.domain[i] >= lo })
	j := sort.Search(len(cs.domain), func(i int) bool { return cs.domain[i] > hi })
	if i >= j {
		return nil, boolmin.Compile(boolmin.Expr{K: ix.K()})
	}
	return cs.domain[i:j:j], ix.cover(cs.codes, i, j)
}

// cover returns the program selecting codes[i:j], a run of an ordered code
// space's value codes. The codes a row can hold are the value codes, the
// NULL code and, once a row is deleted, 0, so the interval widens to just
// inside the nearest such codes below codes[i] and above codes[j-1] (the
// cover's blocks can only grow) and splits around the NULL code when that
// falls inside.
func (ix *Index[V]) cover(codes []uint32, i, j int) *boolmin.Program {
	k := ix.K()
	below, above := int64(-1), int64(1)<<uint(k)
	if i > 0 {
		below = int64(codes[i-1])
	}
	if j < len(codes) {
		above = int64(codes[j])
	}
	if ix.deleted > 0 {
		below = max(below, 0)
	}
	if null := int64(ix.nullCode); ix.hasNullCode && null < int64(codes[i]) {
		below = max(below, null)
	} else if ix.hasNullCode && null > int64(codes[j-1]) {
		above = min(above, null)
	} // a NULL code inside the run is split out below
	cl, ch := uint32(below+1), uint32(above-1)
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
