// Range selections three ways (Section 2.3): a total-order preserving
// encoded bitmap index answering ad-hoc ranges as aligned-subcube covers
// of their code intervals (at most k vector reads, no minimization), a
// range-based encoded bitmap index over predefined selections (Figures
// 7/8), and the IN-list rewriting with logical reduction.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"slices"

	"repro/internal/core"
	"repro/internal/encoding"
)

func main() {
	r := rand.New(rand.NewSource(3))

	// --- Total-order preserving encoding over order amounts 0..999.
	amounts := make([]int64, 150000)
	for i := range amounts {
		amounts[i] = int64(r.Intn(1000))
	}
	oi, err := core.BuildOrdered(amounts, nil, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ordered index: %d rows, cardinality 1000, %d vectors\n", oi.Index().Len(), oi.K())
	for _, q := range [][2]int64{{100, 199}, {0, 499}, {900, 999}} {
		rows, st := oi.Range(q[0], q[1])
		fmt.Printf("  amount in [%d,%d]: %d rows, %d vector reads (simple bitmap: %d)\n",
			q[0], q[1], rows.Count(), st.VectorsRead, q[1]-q[0]+1)
	}

	// The same range via IN-list rewriting + logical reduction.
	in := slices.DeleteFunc(oi.Index().Values(), func(v int64) bool { return v > 499 })
	rows, st := oi.Index().In(in)
	fmt.Printf("  [0,499] via reduction: %d rows, %d vector reads\n\n", rows.Count(), st.VectorsRead)

	// --- Figure 6: optimize an order-preserving encoding for a favored
	// subdomain.
	series := []int64{101, 102, 103, 104, 105, 106}
	column := make([]int64, 6000)
	for i := range column {
		column[i] = series[r.Intn(len(series))]
	}
	favored := []int64{101, 102, 104, 105}
	opt, err := core.BuildOrdered(column, [][]int64{favored}, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("figure 6: favored IN{101,102,104,105} reduces to %s (%d vector)\n\n",
		opt.Index().DescribeSelection(favored), opt.Index().ExprFor(favored).AccessCost())

	// --- Figures 7/8: range-based encoding from predefined selections.
	preds := []encoding.Interval{{Lo: 6, Hi: 10}, {Lo: 8, Hi: 12}, {Lo: 10, Hi: 13}, {Lo: 16, Hi: 20}}
	values := make([]int64, 80000)
	for i := range values {
		values[i] = 6 + int64(r.Intn(14))
	}
	ri, err := core.BuildRangeIndex(values, 6, 20, preds, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("range-based index: partitions %v, %d vectors\n", ri.Partitions(), ri.K())
	for _, p := range preds {
		rows, exact, st := ri.Select(p.Lo, p.Hi)
		fmt.Printf("  %d <= A < %d: %s -> %d rows (exact=%v, %d vector reads)\n",
			p.Lo, p.Hi, ri.DescribeSelection(p.Lo, p.Hi), rows.Count(), exact, st.VectorsRead)
	}
	rows2, exact, _ := ri.Select(7, 11)
	fmt.Printf("  ad-hoc 7 <= A < 11: %d candidate rows (exact=%v; boundary partitions need post-filtering)\n",
		rows2.Count(), exact)
}
