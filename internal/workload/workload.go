// Package workload generates the synthetic data and query mixes the
// benchmark harness runs. The paper's evaluation is analytical and cites
// TPC-D only for its query-type profile — 12 of 17 query types involve
// range searches — so this package provides (a) column generators with
// controllable cardinality and skew, and (b) a TPC-D-flavoured star
// schema (SALES fact with PRODUCT / SALESPOINT / DATE dimensions) plus a
// 17-type query mix preserving that 12:5 range-to-point ratio.
package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/table"
)

// Uniform returns n values uniform over [0, m).
func Uniform(r *rand.Rand, n, m int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(r.Intn(m))
	}
	return out
}

// Zipf returns n values over [0, m) with Zipfian skew s > 1 (frequency of
// value v proportional to 1/(v+1)^s) — the high-cardinality-with-skew
// profile of Wu & Yu's range-based indexing that Section 4 discusses.
func Zipf(r *rand.Rand, n, m int, s float64) []int64 {
	if s <= 1 {
		s = 1.0001
	}
	z := rand.NewZipf(r, s, 1, uint64(m-1))
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(z.Uint64())
	}
	return out
}

// Clustered returns n values over [0, m) where consecutive rows tend to
// stay in a window of the given width — modeling the co-accessed
// subdomains well-defined encodings exploit.
func Clustered(r *rand.Rand, n, m, width int) []int64 {
	if width < 1 {
		width = 1
	}
	out := make([]int64, n)
	base := r.Intn(m)
	for i := range out {
		if r.Intn(16) == 0 {
			base = r.Intn(m)
		}
		out[i] = int64((base + r.Intn(width)) % m)
	}
	return out
}

// StarConfig sizes the synthetic star schema.
type StarConfig struct {
	Facts       int // SALES rows
	Products    int // PRODUCT dimension cardinality (paper's example: 12000)
	SalesPoints int // SALESPOINT dimension cardinality
	Days        int // DATE domain (e.g. 730 for two years)
	MaxQty      int // quantity domain [1, MaxQty]
}

// Star is the generated warehouse: a SALES fact table with foreign keys
// into PRODUCT and SALESPOINT dimensions plus degenerate DATE/QTY/DISCOUNT
// attributes, and the raw columns for index builders.
type Star struct {
	Config StarConfig
	Schema *table.Star

	// Fact columns (length Facts).
	Product    []int64 // PRODUCT row ids, Zipf-skewed
	SalesPoint []int64 // SALESPOINT row ids
	Day        []int64 // 0..Days-1
	Qty        []int64 // 1..MaxQty
	Discount   []int64 // 0..10
	Revenue    []float64

	// Dimension attributes materialized along the fact table.
	Category []int64  // PRODUCT.category (25 values), per fact row
	Company  []string // SALESPOINT.company, per fact row
}

// Figure5Companies returns the paper's branch -> company assignment for a
// 12-branch SALESPOINT dimension (primary membership; the m:N extras live
// in the hierarchy-encoding predicates).
func Figure5Companies() []string {
	return []string{"a", "a", "a", "a", "b", "b", "c", "c", "e", "e", "e", "e"}
}

// BuildStar generates the warehouse.
func BuildStar(r *rand.Rand, cfg StarConfig) (*Star, error) {
	if cfg.Facts <= 0 || cfg.Products <= 0 || cfg.SalesPoints <= 0 || cfg.Days <= 0 || cfg.MaxQty <= 0 {
		return nil, fmt.Errorf("workload: invalid config %+v", cfg)
	}
	product := table.MustNew("PRODUCT",
		table.NewColumn("category", table.Int64),
		table.NewColumn("price", table.Int64),
	)
	for i := 0; i < cfg.Products; i++ {
		if err := product.AppendRow(
			table.IntCell(int64(i%25)),
			table.IntCell(int64(1+r.Intn(500))),
		); err != nil {
			return nil, err
		}
	}
	companies := Figure5Companies()
	salespoint := table.MustNew("SALESPOINT",
		table.NewColumn("company", table.String),
	)
	for i := 0; i < cfg.SalesPoints; i++ {
		if err := salespoint.AppendRow(table.StrCell(companies[i%len(companies)])); err != nil {
			return nil, err
		}
	}

	fact := table.MustNew("SALES",
		table.NewColumn("product", table.Int64),
		table.NewColumn("salespoint", table.Int64),
		table.NewColumn("day", table.Int64),
		table.NewColumn("qty", table.Int64),
		table.NewColumn("discount", table.Int64),
	)
	s := &Star{
		Config:     cfg,
		Product:    Zipf(r, cfg.Facts, cfg.Products, 1.2),
		SalesPoint: Uniform(r, cfg.Facts, cfg.SalesPoints),
		Day:        Uniform(r, cfg.Facts, cfg.Days),
		Qty:        make([]int64, cfg.Facts),
		Discount:   make([]int64, cfg.Facts),
		Revenue:    make([]float64, cfg.Facts),
		Category:   make([]int64, cfg.Facts),
		Company:    make([]string, cfg.Facts),
	}
	for i := 0; i < cfg.Facts; i++ {
		s.Qty[i] = int64(1 + r.Intn(cfg.MaxQty))
		s.Discount[i] = int64(r.Intn(11))
		price := product.Column("price").Int(int(s.Product[i]))
		s.Revenue[i] = float64(s.Qty[i]) * float64(price) * (1 - float64(s.Discount[i])/100)
		s.Category[i] = product.Column("category").Int(int(s.Product[i]))
		s.Company[i] = salespoint.Column("company").Str(int(s.SalesPoint[i]))
		if err := fact.AppendRow(
			table.IntCell(s.Product[i]),
			table.IntCell(s.SalesPoint[i]),
			table.IntCell(s.Day[i]),
			table.IntCell(s.Qty[i]),
			table.IntCell(s.Discount[i]),
		); err != nil {
			return nil, err
		}
	}
	s.Schema = table.NewStar(fact)
	if err := s.Schema.AddDimension("product", product); err != nil {
		return nil, err
	}
	if err := s.Schema.AddDimension("salespoint", salespoint); err != nil {
		return nil, err
	}
	return s, nil
}
