package repro

// One benchmark per table/figure of the paper's evaluation, plus the
// ablations listed in DESIGN.md §5. Custom metrics report the paper's
// cost measure (bitmap vectors read) next to wall time:
//
//	BenchmarkFig9a / BenchmarkFig9b    Figure 9: range-selection cost vs δ
//	BenchmarkFig10Space                Figure 10: index size vs cardinality
//	BenchmarkBTreeSpace                Section 2.1: bitmap vs B-tree space
//	BenchmarkWorstCaseModel            Section 3.2: area-ratio computation
//	BenchmarkQueryMix*                 Section 3.2: the 12/17-range TPC-D mix
//	BenchmarkGroupSet                  Section 4: group-set aggregation
//	BenchmarkMaintenance*              Section 2.2/3.1: appends
//	BenchmarkRangeBased                Section 4: Wu-Yu buckets vs range-encoded EBI
//	BenchmarkJoinIndex                 Section 4: bitmapped join index
//	BenchmarkBaseBSlicing              Section 4: non-binary-base bit slicing
//	BenchmarkAggregateStrategies       decode vs bitmap-side histograms
//	BenchmarkCompressedSimpleIndex     plain vs WAH simple bitmap index
//	Benchmark*Ablation                 DESIGN.md §5 design-choice ablations

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/analysis"
	"repro/internal/bitvec"
	"repro/internal/boolmin"
	"repro/internal/bsi"
	"repro/internal/btree"
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/encoding"
	"repro/internal/joinidx"
	"repro/internal/query"
	"repro/internal/rangebm"
	"repro/internal/simplebitmap"
	"repro/internal/workload"
)

const benchRows = 100000

func uniformColumn(m int) []int64 {
	r := rand.New(rand.NewSource(42))
	return workload.Uniform(r, benchRows, m)
}

// identityEBI builds an encoded bitmap index whose mapping is the identity
// (value = code), the configuration Figure 9's best-case model assumes.
func identityEBI(b testing.TB, column []int64, m int) *core.Index[int64] {
	identity := encoding.NewMapping[int64](analysis.K(m))
	for v := 0; v < m; v++ {
		identity.MustAdd(int64(v), uint32(v))
	}
	ix, err := core.Build(column, nil, &core.Options[int64]{
		Mapping: identity, DisableVoidReserve: true, DisableDontCares: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	return ix
}

// benchFig9 measures the simple and encoded indexes on prefix selections
// of width δ, the constructive best case of Property 3.1.
func benchFig9(b *testing.B, m int) {
	column := uniformColumn(m)
	ebi := identityEBI(b, column, m)
	simple, err := simplebitmap.Build(column, nil)
	if err != nil {
		b.Fatal(err)
	}
	for _, delta := range []int{1, 4, m / 8, m / 2, m} {
		if delta < 1 {
			continue
		}
		vals := make([]int64, delta)
		for i := range vals {
			vals[i] = int64(i)
		}
		b.Run(fmt.Sprintf("simple/delta=%d", delta), func(b *testing.B) {
			var vectors int
			for i := 0; i < b.N; i++ {
				_, st := simple.In(vals)
				vectors = st.VectorsRead
			}
			b.ReportMetric(float64(vectors), "vectors")
		})
		b.Run(fmt.Sprintf("encoded/delta=%d", delta), func(b *testing.B) {
			var vectors int
			for i := 0; i < b.N; i++ {
				_, st := ebi.In(vals)
				vectors = st.VectorsRead
			}
			b.ReportMetric(float64(vectors), "vectors")
		})
	}
}

func BenchmarkFig9a(b *testing.B) { benchFig9(b, 50) }
func BenchmarkFig9b(b *testing.B) { benchFig9(b, 1000) }

// BenchmarkFig10Space builds both indexes across cardinalities and reports
// vector counts and bytes — Figure 10's curves as metrics.
func BenchmarkFig10Space(b *testing.B) {
	for _, m := range []int{16, 256, 4096} {
		column := uniformColumn(m)
		b.Run(fmt.Sprintf("simple/m=%d", m), func(b *testing.B) {
			var bytes, vectors int
			for i := 0; i < b.N; i++ {
				ix, err := simplebitmap.Build(column, nil)
				if err != nil {
					b.Fatal(err)
				}
				bytes, vectors = ix.SizeBytes(), ix.Cardinality()
			}
			b.ReportMetric(float64(vectors), "vectors")
			b.ReportMetric(float64(bytes), "index-bytes")
		})
		b.Run(fmt.Sprintf("encoded/m=%d", m), func(b *testing.B) {
			var bytes, vectors int
			for i := 0; i < b.N; i++ {
				ix, err := core.Build(column, nil, &core.Options[int64]{DisableVoidReserve: true})
				if err != nil {
					b.Fatal(err)
				}
				bytes, vectors = ix.SizeBytes(), ix.K()
			}
			b.ReportMetric(float64(vectors), "vectors")
			b.ReportMetric(float64(bytes), "index-bytes")
		})
	}
}

// BenchmarkBTreeSpace measures the Section 2.1 space comparison around the
// m<93 crossover (p=4K, M=512).
func BenchmarkBTreeSpace(b *testing.B) {
	for _, m := range []int{50, 92, 94, 256} {
		column := uniformColumn(m)
		ucol := make([]uint64, len(column))
		for i, v := range column {
			ucol[i] = uint64(v)
		}
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			var bitmapBytes, btreeBytes int
			for i := 0; i < b.N; i++ {
				sb, err := simplebitmap.Build(column, nil)
				if err != nil {
					b.Fatal(err)
				}
				bt := btree.Build(ucol, 512)
				bitmapBytes, btreeBytes = sb.SizeBytes(), bt.SizeBytes(4096)
			}
			b.ReportMetric(float64(bitmapBytes), "bitmap-bytes")
			b.ReportMetric(float64(btreeBytes), "btree-bytes")
		})
	}
}

// BenchmarkWorstCaseModel computes the Section 3.2 area ratios (0.84 and
// 0.90) from the analytic model.
func BenchmarkWorstCaseModel(b *testing.B) {
	var r50, r1000 float64
	for i := 0; i < b.N; i++ {
		r50 = analysis.AreaRatio(50)
		r1000 = analysis.AreaRatio(1000)
	}
	b.ReportMetric(r50, "ratio-A50")
	b.ReportMetric(r1000, "ratio-A1000")
}

// queryMixFixture builds the star schema and the four executor
// configurations once per benchmark.
func queryMixFixture(b *testing.B) (*workload.Star, map[string]*query.Executor, []workload.MixQuery) {
	b.Helper()
	r := rand.New(rand.NewSource(7))
	star, err := workload.BuildStar(r, workload.StarConfig{
		Facts: benchRows / 2, Products: 1000, SalesPoints: 12, Days: 730, MaxQty: 50,
	})
	if err != nil {
		b.Fatal(err)
	}
	cols := map[string][]int64{
		"product": star.Product, "salespoint": star.SalesPoint,
		"day": star.Day, "qty": star.Qty, "discount": star.Discount,
	}
	toU64 := func(xs []int64) []uint64 {
		out := make([]uint64, len(xs))
		for i, v := range xs {
			out[i] = uint64(v)
		}
		return out
	}
	execs := make(map[string]*query.Executor)

	ex := query.NewExecutor(star.Schema.Fact)
	for col, vals := range cols {
		oi, err := core.BuildOrdered(vals, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		ex.Use(col, query.OrderedEBI{Ix: oi})
	}
	execs["encoded"] = ex

	ex = query.NewExecutor(star.Schema.Fact)
	for col, vals := range cols {
		ix, err := simplebitmap.Build(vals, nil)
		if err != nil {
			b.Fatal(err)
		}
		ex.Use(col, query.SimpleInt{Ix: ix})
	}
	execs["simple"] = ex

	ex = query.NewExecutor(star.Schema.Fact)
	for col, vals := range cols {
		ex.Use(col, query.BSIAdapter{Ix: bsi.Build(toU64(vals))})
	}
	execs["bsi"] = ex

	ex = query.NewExecutor(star.Schema.Fact)
	for col, vals := range cols {
		ex.Use(col, query.BTreeAdapter{Ix: btree.Build(toU64(vals), 512), NRows: len(vals)})
	}
	execs["btree"] = ex

	return star, execs, workload.QueryMix(r, star)
}

// BenchmarkQueryMix runs the 17-type TPC-D-flavoured mix per index
// configuration.
func BenchmarkQueryMix(b *testing.B) {
	_, execs, mix := queryMixFixture(b)
	for _, name := range []string{"encoded", "simple", "bsi", "btree"} {
		ex := execs[name]
		b.Run(name, func(b *testing.B) {
			var vectors int
			for i := 0; i < b.N; i++ {
				vectors = 0
				for _, q := range mix {
					_, st, err := ex.Eval(q.Pred)
					if err != nil {
						b.Fatal(err)
					}
					vectors += st.VectorsRead
				}
			}
			b.ReportMetric(float64(vectors), "vectors/mix")
		})
	}
}

// BenchmarkGroupSet measures Section 4's dynamic group-by on encoded
// vectors.
func BenchmarkGroupSet(b *testing.B) {
	star, _, _ := queryMixFixture(b)
	catIx, err := core.Build(star.Category, nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	spIx, err := core.Build(star.SalesPoint, nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	g, err := core.NewGroupSet(catIx, spIx)
	if err != nil {
		b.Fatal(err)
	}
	all, _ := catIx.Existing()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.GroupSum(all, star.Revenue); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(g.NumVectors()), "vectors")
}

// BenchmarkMaintenanceAppend compares per-tuple append cost, simple vs
// encoded, across cardinalities (Section 3.1's O(h) with h=m vs h=log m).
func BenchmarkMaintenanceAppend(b *testing.B) {
	for _, m := range []int{256, 4096} {
		column := uniformColumn(m)
		b.Run(fmt.Sprintf("simple/m=%d", m), func(b *testing.B) {
			ix, err := simplebitmap.Build(column, nil)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ix.Append(int64(i % m))
			}
		})
		b.Run(fmt.Sprintf("encoded/m=%d", m), func(b *testing.B) {
			ix, err := core.Build(column, nil, nil)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := ix.Append(int64(i % m)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Ablations (DESIGN.md §5) ---

// BenchmarkReductionAblation: logical reduction ON vs evaluating the raw
// sum of min-terms.
func BenchmarkReductionAblation(b *testing.B) {
	m := 256
	column := uniformColumn(m)
	ebi := identityEBI(b, column, m)
	delta := 64
	vals := make([]int64, delta)
	codes := make([]uint32, delta)
	for i := range vals {
		vals[i] = int64(i)
		codes[i] = uint32(i)
	}
	vecs := make([]*bitvec.Vector, ebi.K())
	for i := range vecs {
		vecs[i] = ebi.Vector(i)
	}
	b.Run("reduced", func(b *testing.B) {
		var vectors int
		for i := 0; i < b.N; i++ {
			_, st := ebi.In(vals)
			vectors = st.VectorsRead
		}
		b.ReportMetric(float64(vectors), "vectors")
	})
	b.Run("raw-minterms", func(b *testing.B) {
		raw := boolmin.FromMinterms(ebi.K(), codes)
		var vectors int
		for i := 0; i < b.N; i++ {
			res := boolmin.EvalVectors(raw, vecs)
			vectors = res.VectorsRead
		}
		b.ReportMetric(float64(vectors), "vectors")
	})
}

// BenchmarkEncodingAblation: workload-aware (well-defined) encoding vs the
// trivial sequential one, on scattered co-access predicates (value groups
// that are NOT contiguous, so the trivial encoding cannot exploit them).
func BenchmarkEncodingAblation(b *testing.B) {
	m := 32
	var values []int64
	for i := 0; i < m; i++ {
		values = append(values, int64(i))
	}
	perm := rand.New(rand.NewSource(4)).Perm(m)
	var preds [][]int64
	for blk := 0; blk < 4; blk++ {
		var p []int64
		for i := 0; i < 8; i++ {
			p = append(p, int64(perm[blk*8+i]))
		}
		preds = append(preds, p)
	}
	column := uniformColumn(m)
	optimized, err := core.Build(column, nil, &core.Options[int64]{Predicates: preds})
	if err != nil {
		b.Fatal(err)
	}
	trivial, err := core.Build(column, nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	for name, ix := range map[string]*core.Index[int64]{"well-defined": optimized, "trivial": trivial} {
		b.Run(name, func(b *testing.B) {
			var vectors int
			for i := 0; i < b.N; i++ {
				vectors = 0
				for _, p := range preds {
					_, st := ix.In(p)
					vectors += st.VectorsRead
				}
			}
			b.ReportMetric(float64(vectors), "vectors/4preds")
		})
	}
}

// BenchmarkVoidZeroAblation: Theorem 2.1's void-zero convention vs a
// simple bitmap index that must AND its existence vector after deletes.
func BenchmarkVoidZeroAblation(b *testing.B) {
	m := 64
	column := uniformColumn(m)
	ebi, err := core.Build(column, nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	simple, err := simplebitmap.Build(column, nil)
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(9))
	for i := 0; i < benchRows/20; i++ {
		row := r.Intn(benchRows)
		if err := ebi.Delete(row); err != nil {
			b.Fatal(err)
		}
		if err := simple.Delete(row); err != nil {
			b.Fatal(err)
		}
	}
	vals := []int64{1, 2, 3, 4, 5, 6, 7, 8}
	b.Run("encoded-void0", func(b *testing.B) {
		var vectors int
		for i := 0; i < b.N; i++ {
			_, st := ebi.In(vals)
			vectors = st.VectorsRead
		}
		b.ReportMetric(float64(vectors), "vectors")
	})
	b.Run("simple-existence-mask", func(b *testing.B) {
		var vectors int
		for i := 0; i < b.N; i++ {
			rows, st := simple.In(vals)
			_, st2 := simple.Existing(rows)
			vectors = st.VectorsRead + st2.VectorsRead
		}
		b.ReportMetric(float64(vectors), "vectors")
	})
}

// BenchmarkCompressionAblation: WAH vs plain vector ANDs at the sparsity
// profiles of the two index kinds.
func BenchmarkCompressionAblation(b *testing.B) {
	r := rand.New(rand.NewSource(10))
	n := 1 << 20
	mk := func(density float64) *bitvec.Vector {
		v := bitvec.New(n)
		for i := 0; i < n; i++ {
			if r.Float64() < density {
				v.Set(i)
			}
		}
		return v
	}
	sparseA, sparseB := mk(0.001), mk(0.001) // simple-bitmap profile m=1000
	denseA, denseB := mk(0.5), mk(0.5)       // encoded profile
	cSparseA, cSparseB := compress.Compress(sparseA), compress.Compress(sparseB)
	cDenseA, cDenseB := compress.Compress(denseA), compress.Compress(denseB)
	b.Run("sparse/plain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			bitvec.And(sparseA, sparseB)
		}
	})
	b.Run("sparse/wah", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			compress.And(cSparseA, cSparseB)
		}
		b.ReportMetric(cSparseA.CompressionRatio(), "ratio")
	})
	b.Run("dense/plain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			bitvec.And(denseA, denseB)
		}
	})
	b.Run("dense/wah", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			compress.And(cDenseA, cDenseB)
		}
		b.ReportMetric(cDenseA.CompressionRatio(), "ratio")
	})
}

// BenchmarkDontCareAblation: footnote 3's don't-care exploitation on vs
// off. With the identity mapping over m=40 (k=6, codes 40..63 free), the
// selection [32,40) plus the free codes completes the half-space B5, so
// the reduction drops from 3 vectors to 1.
func BenchmarkDontCareAblation(b *testing.B) {
	m := 40 // k=6 leaves 24 unassigned codes
	column := uniformColumn(m)
	identity := encoding.NewMapping[int64](analysis.K(m))
	for v := 0; v < m; v++ {
		identity.MustAdd(int64(v), uint32(v))
	}
	withDC, err := core.Build(column, nil, &core.Options[int64]{
		Mapping: identity, DisableVoidReserve: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	withoutDC, err := core.Build(column, nil, &core.Options[int64]{
		Mapping: identity, DisableVoidReserve: true, DisableDontCares: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	vals := make([]int64, 8)
	for i := range vals {
		vals[i] = int64(32 + i)
	}
	for name, ix := range map[string]*core.Index[int64]{"dontcares-on": withDC, "dontcares-off": withoutDC} {
		b.Run(name, func(b *testing.B) {
			var vectors int
			for i := 0; i < b.N; i++ {
				_, st := ix.In(vals)
				vectors = st.VectorsRead
			}
			b.ReportMetric(float64(vectors), "vectors")
		})
	}
}

// BenchmarkAggregateStrategies compares the two histogram evaluation
// paths: row decoding vs bitmap-side retrieval functions, at low and high
// selectivity.
func BenchmarkAggregateStrategies(b *testing.B) {
	m := 32
	column := uniformColumn(m)
	ix, err := core.Build(column, nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	small, _ := ix.In([]int64{1})    // ~3% of rows
	large, _ := ix.NotIn([]int64{1}) // ~97% of rows
	b.Run("decode/small", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ix.Histogram(small)
		}
	})
	b.Run("vectors/small", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ix.HistogramVectors(small)
		}
	})
	b.Run("decode/large", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ix.Histogram(large)
		}
	})
	b.Run("vectors/large", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ix.HistogramVectors(large)
		}
	})
}

// BenchmarkJoinIndex measures a star-join selection through the bitmapped
// join index against a denormalized-attribute EBI.
func BenchmarkJoinIndex(b *testing.B) {
	r := rand.New(rand.NewSource(12))
	star, err := workload.BuildStar(r, workload.StarConfig{
		Facts: benchRows / 2, Products: 1000, SalesPoints: 12, Days: 730, MaxQty: 50,
	})
	if err != nil {
		b.Fatal(err)
	}
	ji, err := joinidx.Build(star.Schema, "product")
	if err != nil {
		b.Fatal(err)
	}
	denorm, err := core.Build(star.Category, nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("joinidx", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := ji.SelectDimEqInt("category", 7); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("denormalized-ebi", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			denorm.Eq(7)
		}
	})
}

// BenchmarkBaseBSlicing contrasts the non-binary-base bit-sliced index
// with the binary one: equality favors larger bases, space favors base 2.
func BenchmarkBaseBSlicing(b *testing.B) {
	column := uniformColumn(1000)
	ucol := make([]uint64, len(column))
	for i, v := range column {
		ucol[i] = uint64(v)
	}
	binary := bsi.Build(ucol)
	base10 := bsi.BuildBaseB(ucol, 10)
	b.Run("eq/binary", func(b *testing.B) {
		var vectors int
		for i := 0; i < b.N; i++ {
			_, st := binary.Eq(123)
			vectors = st.VectorsRead
		}
		b.ReportMetric(float64(vectors), "vectors")
	})
	b.Run("eq/base10", func(b *testing.B) {
		var vectors int
		for i := 0; i < b.N; i++ {
			_, st := base10.Eq(123)
			vectors = st.VectorsRead
		}
		b.ReportMetric(float64(vectors), "vectors")
	})
	b.Run("range/binary", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			binary.Range(100, 600)
		}
		b.ReportMetric(float64(binary.SizeBytes()), "index-bytes")
	})
	b.Run("range/base10", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			base10.Range(100, 600)
		}
		b.ReportMetric(float64(base10.SizeBytes()), "index-bytes")
	})
}

// BenchmarkCompressedSimpleIndex measures the WAH-compressed simple
// bitmap index against the plain one on a sparse high-cardinality column.
func BenchmarkCompressedSimpleIndex(b *testing.B) {
	m := 2000
	column := uniformColumn(m)
	plain, err := simplebitmap.Build(column, nil)
	if err != nil {
		b.Fatal(err)
	}
	comp, err := simplebitmap.BuildCompressed(column, nil)
	if err != nil {
		b.Fatal(err)
	}
	vals := make([]int64, 50)
	for i := range vals {
		vals[i] = int64(i)
	}
	b.Run("plain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			plain.In(vals)
		}
		b.ReportMetric(float64(plain.SizeBytes()), "index-bytes")
	})
	b.Run("wah", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			comp.In(vals)
		}
		b.ReportMetric(float64(comp.SizeBytes()), "index-bytes")
	})
}

// BenchmarkRangeBased contrasts Section 4's two range-based designs:
// Wu & Yu equal-population buckets vs the paper's range-encoded EBI, on
// skewed data with predefined selections.
func BenchmarkRangeBased(b *testing.B) {
	r := rand.New(rand.NewSource(13))
	column := workload.Zipf(r, benchRows/2, 10000, 1.3)
	preds := []encoding.Interval{{Lo: 0, Hi: 10}, {Lo: 10, Hi: 100}, {Lo: 100, Hi: 1000}, {Lo: 1000, Hi: 10000}}
	ebi, err := core.BuildRangeIndex(column, 0, 10000, preds, nil)
	if err != nil {
		b.Fatal(err)
	}
	wy, err := rangebm.Build(column, 16)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("range-encoded-ebi", func(b *testing.B) {
		var vectors int
		for i := 0; i < b.N; i++ {
			vectors = 0
			for _, p := range preds {
				_, _, st := ebi.Select(p.Lo, p.Hi)
				vectors += st.VectorsRead
			}
		}
		b.ReportMetric(float64(vectors), "vectors/4preds")
	})
	b.Run("wu-yu-buckets", func(b *testing.B) {
		var vectors int
		for i := 0; i < b.N; i++ {
			vectors = 0
			for _, p := range preds {
				_, _, st := wy.Select(p.Lo, p.Hi)
				vectors += st.VectorsRead
			}
		}
		b.ReportMetric(float64(vectors), "vectors/4preds")
	})
}
