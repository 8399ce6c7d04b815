// Package advisor operationalizes the paper's index-selection guidance:
// Sections 2.1 and 3 establish when each index wins (simple bitmaps for
// low-cardinality/point-heavy columns, encoded bitmaps once cardinality
// or range width grows, B-trees when space at extreme cardinality
// dominates and cooperativity is not needed), and Advise turns those
// analyses into a per-column recommendation given a workload profile.
package advisor

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/analysis"
)

// IndexKind enumerates the access methods this repository implements.
type IndexKind int

// The candidate index kinds.
const (
	SimpleBitmap IndexKind = iota
	EncodedBitmap
	OrderedEncodedBitmap
	BitSliced
	RangeEncodedBitmap
	BTree
)

func (k IndexKind) String() string {
	switch k {
	case SimpleBitmap:
		return "simple-bitmap"
	case EncodedBitmap:
		return "encoded-bitmap"
	case OrderedEncodedBitmap:
		return "ordered-encoded-bitmap"
	case BitSliced:
		return "bit-sliced"
	case RangeEncodedBitmap:
		return "range-encoded-bitmap"
	case BTree:
		return "btree"
	}
	return fmt.Sprintf("IndexKind(%d)", int(k))
}

// ColumnProfile describes the indexed attribute.
type ColumnProfile struct {
	Name        string
	Rows        int
	Cardinality int
	// Ordered marks numeric/ordinal attributes (a total order exists), a
	// precondition for ordered-encoded and bit-sliced indexes.
	Ordered bool
}

// WorkloadProfile describes the expected selections on the column.
// Fractions should sum to at most 1; the remainder is treated as point
// queries.
type WorkloadProfile struct {
	// RangeFraction of queries are range searches (IN-lists or
	// intervals); the paper's TPC-D observation puts this at 12/17 for
	// warehouse mixes.
	RangeFraction float64
	// AvgRangeWidth is the typical δ of those range searches.
	AvgRangeWidth int
	// PredefinedRanges marks workloads whose range predicates are known
	// up front (enabling the Figures 7/8 range-based encoding).
	PredefinedRanges bool
	// Updates marks frequently-updated columns, which penalizes simple
	// bitmaps at high cardinality (O(m) per maintenance touch).
	Updates bool
}

// Estimate is the advisor's cost model output for one candidate.
type Estimate struct {
	Kind            IndexKind
	QueryCost       float64 // expected vector-reads (row scans converted) per query
	SpaceBytes      float64
	Applicable      bool
	WhyInapplicable string
}

// Recommendation is the advisor's answer: the chosen kind, the full
// candidate table, and a prose reason.
type Recommendation struct {
	Column     string
	Kind       IndexKind
	Reason     string
	Candidates []Estimate
}

// spaceWeight converts bytes into the vector-read currency so that space
// only dominates when indexes are otherwise comparable: one "cost unit"
// per megabyte.
const spaceWeight = 1.0 / (1 << 20)

// Advise recommends an index for the column under the workload, using
// the paper's analytical model (pageSize and degree parameterize the
// B-tree: the paper's running values are 4096 and 512).
func Advise(col ColumnProfile, w WorkloadProfile, pageSize, degree int) (Recommendation, error) {
	if col.Rows <= 0 || col.Cardinality <= 0 {
		return Recommendation{}, fmt.Errorf("advisor: column needs positive rows and cardinality")
	}
	if col.Cardinality > col.Rows {
		return Recommendation{}, fmt.Errorf("advisor: cardinality %d exceeds rows %d", col.Cardinality, col.Rows)
	}
	if w.RangeFraction < 0 || w.RangeFraction > 1 {
		return Recommendation{}, fmt.Errorf("advisor: range fraction %v out of [0,1]", w.RangeFraction)
	}
	if pageSize <= 0 {
		pageSize = 4096
	}
	if degree <= 1 {
		degree = 512
	}
	m := col.Cardinality
	n := col.Rows
	k := analysis.K(m)
	delta := w.AvgRangeWidth
	if delta < 1 {
		delta = 1
	}
	if delta > m {
		delta = m
	}
	pointFrac := 1 - w.RangeFraction

	avgCe := averageCe(m)
	candidates := []Estimate{
		{
			Kind:       SimpleBitmap,
			QueryCost:  pointFrac*1 + w.RangeFraction*float64(delta),
			SpaceBytes: analysis.SimpleBitmapBytes(n, m),
			Applicable: true,
		},
		{
			Kind: EncodedBitmap,
			// Point queries read k vectors; ranges read the average
			// reduced cost plus a CPU surcharge for minimizing a
			// δ-min-term expression per ad-hoc query (the logical
			// reduction the paper notes is exponential in general).
			QueryCost:  pointFrac*float64(k) + w.RangeFraction*(avgCe+float64(delta)/256),
			SpaceBytes: analysis.EncodedBitmapBytes(n, m),
			Applicable: true,
		},
		{
			Kind: OrderedEncodedBitmap,
			// A range's interval cover reads at most the k vectors, with
			// no per-query minimization work; priced k+1.
			QueryCost:       pointFrac*float64(k) + w.RangeFraction*float64(k+1),
			SpaceBytes:      analysis.EncodedBitmapBytes(n, m),
			Applicable:      col.Ordered,
			WhyInapplicable: "requires a totally ordered domain",
		},
		{
			Kind:            BitSliced,
			QueryCost:       pointFrac*float64(k) + w.RangeFraction*float64(2*k),
			SpaceBytes:      analysis.EncodedBitmapBytes(n, m),
			Applicable:      col.Ordered,
			WhyInapplicable: "requires a numeric/ordinal domain",
		},
		{
			Kind: RangeEncodedBitmap,
			// Predefined selections reduce to ~2 vectors each (Figure 8).
			QueryCost:       pointFrac*float64(k) + w.RangeFraction*2,
			SpaceBytes:      analysis.EncodedBitmapBytes(n, m),
			Applicable:      col.Ordered && w.PredefinedRanges,
			WhyInapplicable: "requires predefined range selections on an ordered domain",
		},
		{
			Kind: BTree,
			// Probes cost a descent per value; wide ranges walk leaves.
			// Cooperativity loss is not priced here (single-column view).
			QueryCost:  pointFrac*btreeProbe(m, degree) + w.RangeFraction*(btreeProbe(m, degree)+float64(delta)),
			SpaceBytes: analysis.BTreeBytes(m, pageSize, degree) + float64(n)*4,
			Applicable: true,
		},
	}

	// Update-heavy columns pay the O(h) maintenance factor; fold it in as
	// a mild penalty proportional to vector count.
	if w.Updates {
		for i := range candidates {
			switch candidates[i].Kind {
			case SimpleBitmap:
				candidates[i].QueryCost += float64(m) / 64
			case BTree:
				candidates[i].QueryCost += btreeProbe(m, degree) / 4
			default:
				candidates[i].QueryCost += float64(k) / 64
			}
		}
	}

	best := -1
	bestScore := math.Inf(1)
	for i, c := range candidates {
		if !c.Applicable {
			continue
		}
		score := c.QueryCost + c.SpaceBytes*spaceWeight
		if score < bestScore {
			best, bestScore = i, score
		}
	}
	if best < 0 {
		return Recommendation{}, fmt.Errorf("advisor: no applicable index")
	}
	sort.SliceStable(candidates, func(i, j int) bool {
		si := candidates[i].QueryCost + candidates[i].SpaceBytes*spaceWeight
		sj := candidates[j].QueryCost + candidates[j].SpaceBytes*spaceWeight
		if candidates[i].Applicable != candidates[j].Applicable {
			return candidates[i].Applicable
		}
		return si < sj
	})
	chosen := candidates[0]
	return Recommendation{
		Column:     col.Name,
		Kind:       chosen.Kind,
		Reason:     reasonFor(chosen.Kind, col, w, k),
		Candidates: candidates,
	}, nil
}

// averageCe is the mean best-case reduced cost over δ = 1..m (the area
// under Figure 9's best-case curve divided by m), a middle-ground
// estimate between best and worst cases for unplanned range widths.
func averageCe(m int) float64 {
	total := 0
	for _, p := range analysis.Fig9Series(m) {
		total += p.CeBest
	}
	return float64(total) / float64(m)
}

func btreeProbe(m, degree int) float64 {
	if m < 2 {
		return 1
	}
	return 1 + math.Log(float64(m))/math.Log(float64(degree)/2)
}

func reasonFor(kind IndexKind, col ColumnProfile, w WorkloadProfile, k int) string {
	switch kind {
	case SimpleBitmap:
		return fmt.Sprintf("cardinality %d is low and the workload is point-dominated: c_s=1 beats c_e=%d", col.Cardinality, k)
	case EncodedBitmap:
		return fmt.Sprintf("range searches over %d values stay within %d vectors after logical reduction", col.Cardinality, k)
	case OrderedEncodedBitmap:
		return fmt.Sprintf("ordered domain: a range is an interval cover reading <= %d vectors, with no minimization", k)
	case BitSliced:
		return "numeric domain with arithmetic-style range/aggregate access"
	case RangeEncodedBitmap:
		return "predefined range selections reduce to ~2 vectors each (Figures 7/8)"
	case BTree:
		return fmt.Sprintf("extreme cardinality %d makes any bitmap family too large", col.Cardinality)
	}
	return ""
}
