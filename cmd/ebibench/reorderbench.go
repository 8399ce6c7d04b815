package main

import (
	"fmt"
	"math/rand"

	"repro/internal/bitvec"
	"repro/internal/boolmin"
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/reorder"
	"repro/internal/simplebitmap"
	"repro/internal/workload"
)

// The `reorder` experiment measures what a row-reordering pass buys on
// the star schema: each heuristic (lexicographic and Gray-code row
// order, ascending-cardinality and histogram-aware column order) is
// planned over the full SALES fact table, and the resulting permutation
// is pushed through the index builders. Reported per heuristic:
//
//   - plan cost and the run-length ratio (runs after / runs before over
//     the compared columns — the quantity WAH fills are made of);
//   - WAH compression ratios (compressed/raw; <1 compresses) for simple
//     and encoded vectors on representative attributes, against the
//     unsorted ~1.0 baseline;
//   - streamed fused evaluation medians over WAH-compressed encoded
//     vectors (the PR 4 kernel): sorted operands carry long fills, so
//     the same query reads far fewer literal words.
//
// Every reordered evaluation is checked against the unsorted result
// through the permutation; a divergence fails the run.

// benchSpecs are the measured heuristics with their table labels.
var benchSpecs = []struct {
	label string
	spec  reorder.Spec
}{
	{"lex-asc", reorder.LexAsc},
	{"gray-asc", reorder.GrayAsc},
	{"gray-hist", reorder.GrayHist},
}

// reorderSpecResult is one measured row ordering (plan == nil is the
// unsorted baseline).
type reorderSpecResult struct {
	label string
	plan  *reorder.Plan

	// WAH ratios, compressed/raw.
	simpleSP float64 // simple bitmaps, SALESPOINT (m=12)
	encSP    float64 // encoded vectors, SALESPOINT
	encProd  float64 // encoded vectors, PRODUCT (Zipf-skewed)

	// Streamed fused evaluation medians over WAH operands, SALESPOINT EBI,
	// one per reorderSels entry.
	evalMed [2]int64
}

// reorderSels are the selections timed on every row order.
var reorderSels = [2]struct {
	name string
	vals []int64
}{{"eq", []int64{3}}, {"in8", []int64{0, 1, 2, 3, 4, 5, 6, 7}}}

// wahRatioSimple compresses every value vector of a simple bitmap index
// under the given row order (nil = original) and returns wah/raw bytes.
func wahRatioSimple(col []int64, perm []int) (float64, error) {
	sb, err := simplebitmap.Build(col, nil)
	if err != nil {
		return 0, err
	}
	var raw, wah int
	for _, v := range sb.Values() {
		vec := sb.VectorFor(v)
		raw += vec.SizeBytes()
		if perm == nil {
			wah += compress.Compress(vec).SizeBytes()
		} else {
			cv, err := compress.CompressPermuted(vec, perm)
			if err != nil {
				return 0, err
			}
			wah += cv.SizeBytes()
		}
	}
	return float64(wah) / float64(raw), nil
}

// wahRatioEncoded does the same over the k encoded vectors of an EBI
// built with (or without) the reorder option.
func wahRatioEncoded(col []int64, perm []int) (float64, error) {
	opts := &core.Options[int64]{DisableVoidReserve: true, Reorder: perm}
	ix, err := core.Build(col, nil, opts)
	if err != nil {
		return 0, err
	}
	var raw, wah int
	for i := 0; i < ix.K(); i++ {
		vec := ix.Vector(i)
		raw += vec.SizeBytes()
		wah += compress.Compress(vec).SizeBytes()
	}
	return float64(wah) / float64(raw), nil
}

// reorderEvalFixture builds the SALESPOINT EBI under a row order and
// compiles the streamed-eval state for one selection.
type reorderEvalFixture struct {
	ix   *core.Index[int64]
	comp []*compress.Vector
	dst  *bitvec.Vector
}

func newReorderEvalFixture(col []int64, perm []int) (*reorderEvalFixture, error) {
	ix, err := core.Build(col, nil, &core.Options[int64]{Reorder: perm})
	if err != nil {
		return nil, err
	}
	comp := make([]*compress.Vector, ix.K())
	for i := range comp {
		comp[i] = compress.Compress(ix.Vector(i))
	}
	return &reorderEvalFixture{ix: ix, comp: comp, dst: bitvec.New(len(col))}, nil
}

// streamed returns one timing mode per fixture: the fused kernel over the
// fixture's WAH operands for one in-list, into the fixture's dst. Word
// streams are stateful cursors, so each pass opens fresh ones — exactly
// what a real query execution does.
func streamed(fxs []*reorderEvalFixture, vals []int64) []func() {
	modes := make([]func(), len(fxs))
	for i, fx := range fxs {
		prog := boolmin.Compile(fx.ix.ExprFor(vals))
		modes[i] = func() {
			streams := make([]bitvec.WordSource, len(fx.comp))
			for j, cv := range fx.comp {
				streams[j] = cv.Stream()
			}
			prog.EvalInto(fx.dst, streams)
		}
	}
	return modes
}

// reorderMeasurements plans every heuristic over the fact table and
// measures ratios and streamed-eval latency under each row order.
func reorderMeasurements(cfg config) ([]reorderSpecResult, error) {
	r := rand.New(rand.NewSource(cfg.seed))
	scfg := workload.StarConfig{Facts: cfg.n, Products: 200, SalesPoints: 12, Days: 730, MaxQty: 50}
	star, err := workload.BuildStar(r, scfg)
	if err != nil {
		return nil, err
	}
	results := []reorderSpecResult{{label: "unsorted"}}
	for _, bs := range benchSpecs {
		p, err := reorder.PlanTable(star.Schema.Fact, bs.spec)
		if err != nil {
			return nil, fmt.Errorf("reorder: planning %s: %w", bs.label, err)
		}
		results = append(results, reorderSpecResult{label: bs.label, plan: p})
	}

	fxs := make([]*reorderEvalFixture, len(results))
	for i := range results {
		res := &results[i]
		var perm []int
		if res.plan != nil {
			perm = res.plan.Perm
		}
		if res.simpleSP, err = wahRatioSimple(star.SalesPoint, perm); err != nil {
			return nil, err
		}
		if res.encSP, err = wahRatioEncoded(star.SalesPoint, perm); err != nil {
			return nil, err
		}
		if res.encProd, err = wahRatioEncoded(star.Product, perm); err != nil {
			return nil, err
		}
		if fxs[i], err = newReorderEvalFixture(star.SalesPoint, perm); err != nil {
			return nil, err
		}
	}

	// Every row order of one selection is timed in the same rounds, and
	// each reordered result must map back onto the unsorted one.
	for s, sel := range reorderSels {
		for i, t := range timeModes(streamed(fxs, sel.vals)...) {
			res := &results[i]
			res.evalMed[s] = t.med
			if res.plan != nil && !reorder.MapToOriginal(fxs[i].dst, res.plan.Perm).Equal(fxs[0].dst) {
				return nil, fmt.Errorf("reorder/%s: streamed %s result diverged from unsorted", res.label, sel.name)
			}
		}
	}
	return results, nil
}

// runReorder is the `reorder` experiment entry point.
func runReorder(cfg config) error {
	fmt.Printf("row reordering: n=%d fact rows, heuristics planned over the full SALES table\n", cfg.n)
	fmt.Println("(wah ratio = compressed/raw, <1 compresses; speedup = unsorted med / reordered med)")
	results, err := reorderMeasurements(cfg)
	if err != nil {
		return err
	}
	base := results[0]
	w := newTab()
	fmt.Fprintln(w, "ordering\tcolumns\tplan\trun-ratio\twah simple/sp\twah enc/sp\twah enc/prod\teq-wah med\tin8-wah med\tspeedup(in8)")
	for _, res := range results {
		cols, plan, runRatio := "-", "-", "-"
		if res.plan != nil {
			cols = fmt.Sprintf("%v", res.plan.Columns)
			plan = fmtNS(res.plan.PlanNS)
			runRatio = fmt.Sprintf("%.3f", res.plan.RunRatio())
		}
		fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%.3f\t%.3f\t%.3f\t%s\t%s\t%.2fx\n",
			res.label, cols, plan, runRatio,
			res.simpleSP, res.encSP, res.encProd,
			fmtNS(res.evalMed[0]), fmtNS(res.evalMed[1]),
			float64(base.evalMed[1])/float64(res.evalMed[1]))
	}
	return w.Flush()
}
