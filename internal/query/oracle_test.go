package query_test

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/boolmin"
	"repro/internal/bsi"
	"repro/internal/btree"
	"repro/internal/core"
	"repro/internal/encoding"
	"repro/internal/iostat"
	. "repro/internal/query"
	"repro/internal/simplebitmap"
	"repro/internal/table"
	"repro/internal/workload"
)

// The cross-index differential oracle: every index family answers the
// same random workloads over the same data, and any disagreement with
// the index-less full scan (or between families) is a bug in somebody's
// retrieval logic. This is the repo's strongest whole-stack correctness
// check — the EBI's minimized Boolean retrieval, the simple bitmap's
// per-value vectors, WAH decompression, bit-slice arithmetic, and B-tree
// row lists all have to land on identical row sets.

// baselineEBI is a test-only access path that evaluates the same reduced
// retrieval expressions as the fused EBI adapter but through the
// sequential multi-pass baseline (boolmin.EvalVectors) over the index's
// raw vectors. It exists purely as the fused path's differential oracle:
// identical rows AND identical iostat accounting are both contractual.
type baselineEBI struct{ Ix *core.Index[int64] }

func (a baselineEBI) evalBaseline(vals []int64) (*bitvec.Vector, iostat.Stats, error) {
	e := a.Ix.ExprFor(vals)
	vecs := make([]*bitvec.Vector, a.Ix.K())
	for i := range vecs {
		vecs[i] = a.Ix.Vector(i)
	}
	res := boolmin.EvalVectors(e, vecs)
	return res.Rows, iostat.Stats{
		VectorsRead: res.VectorsRead,
		WordsRead:   res.WordsRead,
		BoolOps:     res.Ops,
	}, nil
}

func (a baselineEBI) Eq(v table.Cell) (*bitvec.Vector, iostat.Stats, error) {
	if v.Null {
		rows, st := a.Ix.IsNull()
		return rows, st, nil
	}
	return a.evalBaseline([]int64{v.I})
}

func (a baselineEBI) In(vs []table.Cell) (*bitvec.Vector, iostat.Stats, error) {
	vals := make([]int64, 0, len(vs))
	for _, v := range vs {
		if !v.Null {
			vals = append(vals, v.I)
		}
	}
	return a.evalBaseline(vals)
}

func (a baselineEBI) Range(lo, hi int64) (*bitvec.Vector, iostat.Stats, error) {
	var vals []int64
	for _, v := range a.Ix.Values() {
		if v >= lo && v <= hi {
			vals = append(vals, v)
		}
	}
	return a.evalBaseline(vals)
}

// firstAppearance returns the mapping that codes a column's distinct
// values 1..m in the order they first appear, leaving code 0 free for void
// tuples.
func firstAppearance(col []int64) *encoding.Mapping[int64] {
	var domain []int64
	seen := make(map[int64]bool)
	for _, v := range col {
		if !seen[v] {
			seen[v] = true
			domain = append(domain, v)
		}
	}
	m := encoding.NewMapping[int64](encoding.BitsFor(len(domain) + 1))
	for i, v := range domain {
		m.MustAdd(v, uint32(i+1))
	}
	return m
}

// oraclePlanners builds one planner per index family, each with that
// family as its only access path, over the given column. "ebi" and
// "ebi-baseline" read one index coded in first-appearance order, whose
// ranges are IN lists for both; "ebi-ordered" is core.Build's value-ordered
// index, whose ranges take the interval cover, and is returned too.
func oraclePlanners(t *testing.T, col []int64) (*Executor, map[string]*Planner, EBIInt) {
	t.Helper()
	tab := table.MustNew("t", table.NewColumn("v", table.Int64))
	u64 := make([]uint64, len(col))
	for i, v := range col {
		if err := tab.AppendRow(table.IntCell(v)); err != nil {
			t.Fatal(err)
		}
		u64[i] = uint64(v)
	}
	scan := NewExecutor(tab)

	ebi, err := core.Build(col, nil, &core.Options[int64]{Mapping: firstAppearance(col)})
	if err != nil {
		t.Fatal(err)
	}
	if slices.IsSorted(ebi.Values()) {
		t.Fatalf("setup: first-appearance codes %v ascend with the values", ebi.Values())
	}
	ordered, err := core.Build(col, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.IsSorted(ordered.Values()) {
		t.Fatalf("setup: core.Build codes %v out of value order", ordered.Values())
	}
	simple, err := simplebitmap.Build(col, nil)
	if err != nil {
		t.Fatal(err)
	}
	wah, err := simplebitmap.BuildCompressed(col, nil)
	if err != nil {
		t.Fatal(err)
	}
	paths := map[string]AccessPath{
		"ebi":          {Name: "ebi", Index: EBIInt{Ix: ebi}, Model: EBIModel(ebi.K())},
		"ebi-baseline": {Name: "ebi-baseline", Index: baselineEBI{Ix: ebi}, Model: EBIModel(ebi.K())},
		"ebi-ordered":  {Name: "ebi-ordered", Index: EBIInt{Ix: ordered}, Model: EBIModel(ordered.K())},
		"simple":       {Name: "simple", Index: SimpleInt{Ix: simple}, Model: SimpleBitmapModel()},
		"wah":          {Name: "wah", Index: CompressedSimpleInt{Ix: wah}, Model: SimpleBitmapModel()},
		"bsi":          {Name: "bsi", Index: BSIAdapter{Ix: bsi.Build(u64)}, Model: BSIModel(8)},
		"btree": {Name: "btree", Index: BTreeAdapter{Ix: btree.Build(u64, 8), NRows: len(col)},
			Model: BTreeModel(3, len(col)/8)},
	}
	planners := make(map[string]*Planner, len(paths))
	for name, p := range paths {
		pl := NewPlanner(NewExecutor(tab))
		if err := pl.AddPath("v", p); err != nil {
			t.Fatal(err)
		}
		planners[name] = pl
	}
	return scan, planners, EBIInt{Ix: ordered}
}

// rangeLeaves lists a predicate tree's range leaves.
func rangeLeaves(p Predicate) []Range {
	switch p := p.(type) {
	case Range:
		return []Range{p}
	case Not:
		return rangeLeaves(p.Pred)
	case And:
		var out []Range
		for _, c := range p.Preds {
			out = append(out, rangeLeaves(c)...)
		}
		return out
	case Or:
		var out []Range
		for _, c := range p.Preds {
			out = append(out, rangeLeaves(c)...)
		}
		return out
	}
	return nil
}

// randOraclePred builds a random predicate tree over column v with values
// drawn from [0, card+2) — slightly past the domain so missing values and
// empty results are exercised too.
func randOraclePred(r *rand.Rand, card, depth int) Predicate {
	if depth <= 0 || r.Intn(3) == 0 {
		switch r.Intn(3) {
		case 0:
			return Eq{Col: "v", Val: table.IntCell(int64(r.Intn(card + 2)))}
		case 1:
			vals := make([]table.Cell, 1+r.Intn(5))
			for i := range vals {
				vals[i] = table.IntCell(int64(r.Intn(card + 2)))
			}
			return In{Col: "v", Vals: vals}
		default:
			lo := int64(r.Intn(card + 2))
			return Range{Col: "v", Lo: lo, Hi: lo + int64(r.Intn(6))}
		}
	}
	switch r.Intn(3) {
	case 0:
		kids := make([]Predicate, 2+r.Intn(2))
		for i := range kids {
			kids[i] = randOraclePred(r, card, depth-1)
		}
		return And{Preds: kids}
	case 1:
		kids := make([]Predicate, 2+r.Intn(2))
		for i := range kids {
			kids[i] = randOraclePred(r, card, depth-1)
		}
		return Or{Preds: kids}
	default:
		return Not{Pred: randOraclePred(r, card, depth-1)}
	}
}

// TestOracleCrossIndexDifferential runs ~200 seeded random workloads —
// point, IN, range, and AND/OR/NOT trees over Zipf and uniform data at
// two cardinalities — and asserts that the encoded bitmap (coded in
// first-appearance and in value order), simple bitmap, WAH-compressed
// simple bitmap, bit-sliced, and B-tree indexes all return exactly the
// scan's row set. The value-ordered index's range leaves must also report
// the Stats PredictLeaf states for their interval cover.
func TestOracleCrossIndexDifferential(t *testing.T) {
	const n, predsPerConfig = 2500, 50
	configs := []struct {
		name string
		card int
		gen  func(r *rand.Rand) []int64
	}{
		{"uniform/m=8", 8, func(r *rand.Rand) []int64 { return workload.Uniform(r, n, 8) }},
		{"uniform/m=50", 50, func(r *rand.Rand) []int64 { return workload.Uniform(r, n, 50) }},
		{"zipf/m=8", 8, func(r *rand.Rand) []int64 { return workload.Zipf(r, n, 8, 1.2) }},
		{"zipf/m=50", 50, func(r *rand.Rand) []int64 { return workload.Zipf(r, n, 50, 1.2) }},
	}
	for ci, cfg := range configs {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(100 + ci)))
			col := cfg.gen(r)
			scan, planners, ordered := oraclePlanners(t, col)
			for w := 0; w < predsPerConfig; w++ {
				pred := randOraclePred(r, cfg.card, 2)
				want, _, err := scan.Eval(pred)
				if err != nil {
					t.Fatalf("workload %d: scan: %v", w, err)
				}
				stats := make(map[string]iostat.Stats, len(planners))
				for name, pl := range planners {
					got, st, choices, err := pl.Eval(pred)
					if err != nil {
						t.Fatalf("workload %d (%s): %s: %v", w, pred, name, err)
					}
					if !got.Equal(want) {
						t.Fatalf("workload %d (%s): %s returned %d rows, scan %d — row sets differ\nchoices: %v",
							w, pred, name, got.Count(), want.Count(), choices)
					}
					stats[name] = st
				}
				// The fused EBI path must report exactly the multi-pass
				// baseline's accounting, not just the same rows.
				if stats["ebi"] != stats["ebi-baseline"] {
					t.Fatalf("workload %d (%s): fused stats %+v, baseline %+v",
						w, pred, stats["ebi"], stats["ebi-baseline"])
				}
				for _, leaf := range rangeLeaves(pred) {
					wantRows, _, err := scan.Eval(leaf)
					if err != nil {
						t.Fatal(err)
					}
					rows, st, err := ordered.Leaf(context.Background(), leaf, 1)
					if err != nil {
						t.Fatal(err)
					}
					predicted, _, ok := ordered.PredictLeaf(leaf)
					if !ok || !rows.Equal(wantRows) || st != predicted {
						t.Fatalf("workload %d: ebi-ordered %s: %d rows (scan %d), stats %+v, predicted %+v (ok %v)",
							w, leaf, rows.Count(), wantRows.Count(), st, predicted, ok)
					}
				}
			}
		})
	}
}

// TestOracleParallelMatchesSequential re-runs the workload mix over a
// multi-segment table through two EBI planners — one sequential, one with
// the parallel gate forced on — and requires bit-for-bit identical row
// sets and exactly equal iostat totals, with the parallel planner really
// engaging (Choice.Par > 1 on indexed leaves).
func TestOracleParallelMatchesSequential(t *testing.T) {
	n := 2*bitvec.SegmentBits + 777
	if testing.Short() {
		n = bitvec.SegmentBits + 99
	}
	const card = 50
	r := rand.New(rand.NewSource(7))
	col := workload.Zipf(r, n, card, 1.1)
	tab := table.MustNew("t", table.NewColumn("v", table.Int64))
	for _, v := range col {
		if err := tab.AppendRow(table.IntCell(v)); err != nil {
			t.Fatal(err)
		}
	}
	ebi, err := core.Build(col, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	path := AccessPath{Name: "ebi", Index: EBIInt{Ix: ebi}, Model: EBIModel(ebi.K())}
	seq := NewPlanner(NewExecutor(tab))
	par := NewPlanner(NewExecutor(tab))
	if err := seq.AddPath("v", path); err != nil {
		t.Fatal(err)
	}
	if err := par.AddPath("v", path); err != nil {
		t.Fatal(err)
	}
	par.EnableParallel(ParallelPolicy{MinWords: 1, MaxDegree: 4})

	sawParallel := false
	for w := 0; w < 60; w++ {
		pred := randOraclePred(r, card, 2)
		seqRows, seqSt, _, err := seq.Eval(pred)
		if err != nil {
			t.Fatalf("workload %d: sequential: %v", w, err)
		}
		parRows, parSt, choices, err := par.Eval(pred)
		if err != nil {
			t.Fatalf("workload %d: parallel: %v", w, err)
		}
		if !parRows.Equal(seqRows) {
			t.Fatalf("workload %d (%s): parallel rows differ from sequential", w, pred)
		}
		if parSt != seqSt {
			t.Fatalf("workload %d (%s): parallel stats %+v, want %+v", w, pred, parSt, seqSt)
		}
		for _, ch := range choices {
			if ch.Par > 1 {
				sawParallel = true
			}
		}
	}
	if !sawParallel {
		t.Fatal("parallel gate never engaged — no leaf executed with degree > 1")
	}
}

// TestOracleParallelGateDeclinesSmallInputs pins the cost-gate behavior:
// under the default policy a small table stays sequential even with
// parallelism enabled, and the EXPLAIN output is unchanged.
func TestOracleParallelGateDeclinesSmallInputs(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	col := workload.Uniform(r, 2000, 16)
	tab := table.MustNew("t", table.NewColumn("v", table.Int64))
	for _, v := range col {
		if err := tab.AppendRow(table.IntCell(v)); err != nil {
			t.Fatal(err)
		}
	}
	ebi, err := core.Build(col, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	pl := NewPlanner(NewExecutor(tab))
	if err := pl.AddPath("v", AccessPath{Name: "ebi", Index: EBIInt{Ix: ebi}, Model: EBIModel(ebi.K())}); err != nil {
		t.Fatal(err)
	}
	pl.EnableParallel(ParallelPolicy{}) // defaults: MinWords = 4 segments

	pred := In{Col: "v", Vals: []table.Cell{table.IntCell(1), table.IntCell(2)}}
	_, _, choices, err := pl.Eval(pred)
	if err != nil {
		t.Fatal(err)
	}
	if len(choices) != 1 || choices[0].Par != 0 {
		t.Fatalf("gate engaged on a small table: %+v", choices)
	}
	plan, err := pl.Explain(pred)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Root.Parallel != 0 {
		t.Fatalf("EXPLAIN advertises parallel degree %d on a gated-off leaf", plan.Root.Parallel)
	}
}
