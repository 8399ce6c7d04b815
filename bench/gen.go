package main

// Benchmark-owned input generators. They began as copies of
// internal/workload's BuildStar and QueryMix and are frozen here, so later
// edits to the system's own generators cannot change what the benchmark
// feeds it. Every input is a function of the seed alone.

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/query"
	"repro/internal/table"
)

// starConfig sizes the star schema every workload uses.
type starConfig struct {
	Facts       int
	Products    int // Zipf(1.2)-skewed foreign key
	SalesPoints int
	Days        int
	MaxQty      int // qty in [1, MaxQty]
}

const discounts = 11 // discount in [0, 10]

func starOf(rows int) starConfig {
	return starConfig{Facts: rows, Products: 1000, SalesPoints: 12, Days: 730, MaxQty: 50}
}

// buildStar generates the SALES fact table (product, salespoint, day, qty,
// discount) with its PRODUCT and SALESPOINT dimensions. It draws from r in
// the same order workload.BuildStar did when it was copied.
func buildStar(r *rand.Rand, cfg starConfig) (*table.Star, error) {
	product := table.MustNew("PRODUCT",
		table.NewColumn("category", table.Int64),
		table.NewColumn("price", table.Int64),
	)
	for i := 0; i < cfg.Products; i++ {
		if err := product.AppendRow(table.IntCell(int64(i%25)), table.IntCell(int64(1+r.Intn(500)))); err != nil {
			return nil, err
		}
	}
	companies := []string{"a", "a", "a", "a", "b", "b", "c", "c", "e", "e", "e", "e"}
	salespoint := table.MustNew("SALESPOINT", table.NewColumn("company", table.String))
	for i := 0; i < cfg.SalesPoints; i++ {
		if err := salespoint.AppendRow(table.StrCell(companies[i%len(companies)])); err != nil {
			return nil, err
		}
	}

	n := cfg.Facts
	prod := zipfColumn(r, n, cfg.Products)
	sp := uniformColumn(r, n, cfg.SalesPoints)
	day := uniformColumn(r, n, cfg.Days)
	fact := table.MustNew("SALES",
		table.NewColumn("product", table.Int64),
		table.NewColumn("salespoint", table.Int64),
		table.NewColumn("day", table.Int64),
		table.NewColumn("qty", table.Int64),
		table.NewColumn("discount", table.Int64),
	)
	for i := 0; i < n; i++ {
		qty := int64(1 + r.Intn(cfg.MaxQty))
		disc := int64(r.Intn(discounts))
		if err := fact.AppendRow(table.IntCell(prod[i]), table.IntCell(sp[i]), table.IntCell(day[i]),
			table.IntCell(qty), table.IntCell(disc)); err != nil {
			return nil, err
		}
	}
	s := table.NewStar(fact)
	if err := s.AddDimension("product", product); err != nil {
		return nil, err
	}
	if err := s.AddDimension("salespoint", salespoint); err != nil {
		return nil, err
	}
	return s, nil
}

func uniformColumn(r *rand.Rand, n, m int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(r.Intn(m))
	}
	return out
}

func zipfColumn(r *rand.Rand, n, m int) []int64 {
	z := rand.NewZipf(r, 1.2, 1, uint64(m-1))
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(z.Uint64())
	}
	return out
}

func eq(col string, v int64) query.Predicate { return query.Eq{Col: col, Val: table.IntCell(v)} }

func in(col string, vals []int64) query.Predicate {
	cells := make([]table.Cell, len(vals))
	for i, v := range vals {
		cells[i] = table.IntCell(v)
	}
	return query.In{Col: col, Vals: cells}
}

func and(ps ...query.Predicate) query.Predicate { return query.And{Preds: ps} }

// distinct draws k distinct values from [lo, lo+m).
func distinct(r *rand.Rand, k, lo, m int) []int64 {
	seen := make(map[int]bool, k)
	out := make([]int64, 0, k)
	for len(out) < k {
		v := r.Intn(m)
		if !seen[v] {
			seen[v] = true
			out = append(out, int64(lo+v))
		}
	}
	return out
}

// queryMix instantiates the 17-type TPC-D-flavoured mix (12 range types,
// 5 point types) over the star's domains.
func queryMix(r *rand.Rand, cfg starConfig) []query.Predicate {
	day := func(width int) query.Predicate {
		if width >= cfg.Days {
			width = cfg.Days - 1
		}
		lo := int64(0)
		if span := cfg.Days - width; span > 0 {
			lo = int64(r.Intn(span))
		}
		return query.Range{Col: "day", Lo: lo, Hi: lo + int64(width)}
	}
	products := func(k int) []int64 {
		out := make([]int64, k)
		for i := range out {
			out[i] = int64(r.Intn(cfg.Products))
		}
		return out
	}
	return []query.Predicate{
		day(90),
		and(day(30), eq("salespoint", int64(r.Intn(cfg.SalesPoints)))),
		day(91),
		and(day(365), query.Range{Col: "product", Lo: 0, Hi: int64(cfg.Products / 4)}),
		and(day(365), query.Range{Col: "discount", Lo: 4, Hi: 6}, query.Range{Col: "qty", Lo: 1, Hi: int64(cfg.MaxQty / 2)}),
		day(182),
		day(300),
		query.Range{Col: "product", Lo: int64(cfg.Products / 2), Hi: int64(cfg.Products - 1)},
		day(91),
		and(day(365), query.Range{Col: "qty", Lo: int64(cfg.MaxQty / 2), Hi: int64(cfg.MaxQty)}),
		day(30),
		in("product", products(32)),
		eq("product", int64(r.Intn(cfg.Products))),
		eq("salespoint", int64(r.Intn(cfg.SalesPoints))),
		eq("discount", int64(r.Intn(discounts))),
		eq("qty", int64(1+r.Intn(cfg.MaxQty))),
		and(eq("product", int64(r.Intn(cfg.Products))), eq("salespoint", int64(r.Intn(cfg.SalesPoints)))),
	}
}

const (
	mixInstances = 4
	notEqs       = 4
)

// dashboardQueries returns the 72-predicate pool (four QueryMix
// instantiations plus four NOT(product = v)) and a Zipf(1.1) replay stream
// over it. Popularity follows pool order, so the hot query types, and with
// them the cost mix, are the same for every seed; the seed draws every
// predicate's parameters and the replay order. The replay is stratified:
// each cycle of about 1,000 queries holds pool entry k in proportion to
// (k+1)^-1.1, shuffled, so the mix in a run does not drift with sampling.
func dashboardQueries(r *rand.Rand, cfg starConfig) ([]query.Predicate, func() query.Predicate) {
	var pool []query.Predicate
	for i := 0; i < mixInstances; i++ {
		pool = append(pool, queryMix(r, cfg)...)
	}
	for i := 0; i < notEqs; i++ {
		pool = append(pool, query.Not{Pred: eq("product", int64(r.Intn(cfg.Products)))})
	}
	var total float64
	for k := range pool {
		total += math.Pow(float64(k+1), -1.1)
	}
	var cycle []int
	for k := range pool {
		for n := math.Round(1000 * math.Pow(float64(k+1), -1.1) / total); n > 0; n-- {
			cycle = append(cycle, k)
		}
	}
	next := len(cycle)
	return pool, func() query.Predicate {
		if next == len(cycle) {
			r.Shuffle(len(cycle), func(i, j int) { cycle[i], cycle[j] = cycle[j], cycle[i] })
			next = 0
		}
		next++
		return pool[cycle[next-1]]
	}
}

// adhocQueries returns a stream of never-repeated ad-hoc selections: 30%
// IN over days, 30% IN over products, 20% product ranges (answered by
// rewriting to an IN), 20% a day IN-list under a salespoint.
func adhocQueries(r *rand.Rand, cfg starConfig) func() query.Predicate {
	seen := make(map[string]bool)
	draw := func() query.Predicate {
		switch x := r.Float64(); {
		case x < 0.3:
			return in("day", distinct(r, 8+r.Intn(57), 0, cfg.Days))
		case x < 0.6:
			return in("product", distinct(r, 8+r.Intn(57), 0, cfg.Products))
		case x < 0.8:
			w := 10 + r.Intn(191)
			lo := int64(r.Intn(cfg.Products - w + 1))
			return query.Range{Col: "product", Lo: lo, Hi: lo + int64(w) - 1}
		default:
			return and(in("day", distinct(r, 8+r.Intn(25), 0, cfg.Days)), eq("salespoint", int64(r.Intn(cfg.SalesPoints))))
		}
	}
	return func() query.Predicate {
		for {
			p := draw()
			if key := canonical(p); !seen[key] {
				seen[key] = true
				return p
			}
		}
	}
}

// canonical renders a predicate with IN-lists sorted, so two draws of the
// same value set compare equal.
func canonical(p query.Predicate) string {
	switch p := p.(type) {
	case query.In:
		vals := make([]int64, len(p.Vals))
		for i, c := range p.Vals {
			vals[i] = c.I
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		return fmt.Sprintf("%s in %v", p.Col, vals)
	case query.And:
		s := "and("
		for _, c := range p.Preds {
			s += canonical(c) + ";"
		}
		return s + ")"
	}
	return p.String()
}

// wahQueries returns a stream of fresh selections over the WAH-compressed
// columns: point, 3-wide IN, 10-wide qty range, product IN δ 8–32, and
// AND/OR pairs of the first three kinds, 20% each.
func wahQueries(r *rand.Rand, cfg starConfig) func() query.Predicate {
	domains := map[string][2]int{ // column -> [lo, size]
		"salespoint": {0, cfg.SalesPoints},
		"discount":   {0, discounts},
		"qty":        {1, cfg.MaxQty},
		"product":    {0, cfg.Products},
	}
	small := []string{"salespoint", "discount", "qty"}
	point := func(cols []string) query.Predicate {
		c := cols[r.Intn(len(cols))]
		d := domains[c]
		return eq(c, int64(d[0]+r.Intn(d[1])))
	}
	in3 := func() query.Predicate {
		c := small[r.Intn(len(small))]
		d := domains[c]
		return in(c, distinct(r, 3, d[0], d[1]))
	}
	qtyRange := func() query.Predicate {
		lo := int64(1 + r.Intn(cfg.MaxQty-9))
		return query.Range{Col: "qty", Lo: lo, Hi: lo + 9}
	}
	simple := func() query.Predicate {
		switch r.Intn(3) {
		case 0:
			return point(small)
		case 1:
			return in3()
		}
		return qtyRange()
	}
	return func() query.Predicate {
		switch r.Intn(5) {
		case 0:
			return point([]string{"salespoint", "discount", "qty", "product"})
		case 1:
			return in3()
		case 2:
			return qtyRange()
		case 3:
			return in("product", distinct(r, 8+r.Intn(25), 0, cfg.Products))
		}
		if r.Intn(2) == 0 {
			return and(simple(), simple())
		}
		return query.Or{Preds: []query.Predicate{simple(), simple()}}
	}
}

// ingestReads returns the reader's stream over the product column: point,
// IN δ=8, 50-wide range, NOT point and IS NULL, 20% each.
func ingestReads(r *rand.Rand, cfg starConfig) func() query.Predicate {
	return func() query.Predicate {
		switch r.Intn(5) {
		case 0:
			return eq("product", int64(r.Intn(cfg.Products)))
		case 1:
			return in("product", distinct(r, 8, 0, cfg.Products))
		case 2:
			lo := int64(r.Intn(cfg.Products - 49))
			return query.Range{Col: "product", Lo: lo, Hi: lo + 49}
		case 3:
			return query.Not{Pred: eq("product", int64(r.Intn(cfg.Products)))}
		}
		return query.Eq{Col: "product", Val: table.NullCell()}
	}
}
