package main

import (
	"fmt"
	"math/rand"

	"repro/internal/bitvec"
	"repro/internal/bsi"
	"repro/internal/core"
	"repro/internal/iostat"
	"repro/internal/query"
	"repro/internal/reorder"
	"repro/internal/simplebitmap"
	"repro/internal/table"
)

// system is what a read workload's set-up builds: the planner the
// benchmark queries, the scan-only reference it checks answers against,
// and the per-path leaf evaluators the traced run decomposes leaves with.
type system struct {
	pl   *query.Planner
	ref  *query.Executor // scan-only, over the unsorted fact table
	perm []int           // reordered row id -> original row id; nil when not reordered

	rows       int
	indexBytes int
	leaves     map[string]leafRunner // "column/path" -> decomposed leaf evaluation
}

// eval answers p through the planner, mapping reordered row ids back to
// original ones.
func (s *system) eval(p query.Predicate) (*bitvec.Vector, iostat.Stats, []query.Choice, error) {
	rows, st, choices, err := s.pl.Eval(p)
	if err == nil && s.perm != nil {
		rows = reorder.MapToOriginal(rows, s.perm)
	}
	return rows, st, choices, err
}

// pathAdder registers access paths, remembering the first error and the
// summed index size.
type pathAdder struct {
	s   *system
	err error
}

func (a *pathAdder) add(col string, p query.AccessPath, size int, leaf leafRunner) {
	if a.err != nil {
		return
	}
	if a.err = a.s.pl.AddPath(col, p); a.err == nil {
		a.s.indexBytes += size
		a.s.leaves[col+"/"+p.Name] = leaf
	}
}

func (a *pathAdder) ebi(col string, ix *core.Index[int64]) {
	a.add(col, query.AccessPath{Name: "ebi", Index: query.EBIInt{Ix: ix}, Model: query.EBIModel(ix.K())},
		ix.SizeBytes(), ebiLeaf(ix, nil))
}

func (a *pathAdder) simple(col string, ix *simplebitmap.Index[int64]) {
	a.add(col, query.AccessPath{Name: "simple", Index: query.SimpleInt{Ix: ix}, Model: query.SimpleBitmapModel()},
		ix.SizeBytes(), wholeLeaf("simplebitmap.leaf", query.SimpleInt{Ix: ix}))
}

func newSystem(fact *table.Table) (*system, *pathAdder) {
	scan := query.NewExecutor(fact) // no indexes registered: scans only
	s := &system{
		pl:     query.NewPlanner(scan),
		ref:    scan,
		rows:   fact.Len(),
		leaves: make(map[string]leafRunner),
	}
	return s, &pathAdder{s: s}
}

func ints(fact *table.Table, col string) []int64 { return fact.Column(col).Ints() }

func rng(seed, stream int64) *rand.Rand { return rand.New(rand.NewSource(seed*1_000_003 + stream)) }

// setupDashboard builds the dashboard system: day carries an ordered EBI,
// a simple bitmap and a bit-sliced index; product an EBI and a simple
// bitmap; salespoint, qty and discount an EBI each.
func setupDashboard(seed int64, rows int) (*system, error) {
	star, err := buildStar(rng(seed, 0), starOf(rows))
	if err != nil {
		return nil, err
	}
	fact := star.Fact
	s, a := newSystem(fact)

	day, err := core.BuildOrdered(ints(fact, "day"), nil, nil)
	if err != nil {
		return nil, err
	}
	a.add("day", query.AccessPath{Name: "ebi", Index: query.OrderedEBI{Ix: day}, Model: query.EBIModel(day.K())},
		day.Index().SizeBytes(), ebiLeaf(day.Index(), day))
	daySimple, err := simplebitmap.Build(ints(fact, "day"), nil)
	if err != nil {
		return nil, err
	}
	a.simple("day", daySimple)
	keys := make([]uint64, rows)
	for i, v := range ints(fact, "day") {
		keys[i] = uint64(v)
	}
	dayBSI := bsi.Build(keys)
	a.add("day", query.AccessPath{Name: "bsi", Index: query.BSIAdapter{Ix: dayBSI}, Model: query.BSIModel(dayBSI.K())},
		dayBSI.SizeBytes(), wholeLeaf("bsi.leaf", query.BSIAdapter{Ix: dayBSI}))

	prodSimple, err := simplebitmap.Build(ints(fact, "product"), nil)
	if err != nil {
		return nil, err
	}
	a.simple("product", prodSimple)
	for _, col := range []string{"product", "salespoint", "qty", "discount"} {
		ix, err := core.Build(ints(fact, col), nil, nil)
		if err != nil {
			return nil, err
		}
		a.ebi(col, ix)
	}
	return s, a.err
}

// setupAdhoc builds EBI-only paths on day, product and salespoint.
func setupAdhoc(seed int64, rows int) (*system, error) {
	star, err := buildStar(rng(seed, 0), starOf(rows))
	if err != nil {
		return nil, err
	}
	fact := star.Fact
	s, a := newSystem(fact)
	for _, col := range []string{"day", "product", "salespoint"} {
		ix, err := core.Build(ints(fact, col), nil, nil)
		if err != nil {
			return nil, err
		}
		a.ebi(col, ix)
	}
	return s, a.err
}

// setupWAHSorted reorders the fact table by reorder.GrayHist over the
// indexed columns and builds WAH-compressed simple bitmaps over the
// reordered rows. Answers map back to original row ids.
func setupWAHSorted(seed int64, rows int) (*system, error) {
	star, err := buildStar(rng(seed, 0), starOf(rows))
	if err != nil {
		return nil, err
	}
	cols := []string{"salespoint", "discount", "qty", "product"}
	plan, err := reorder.PlanColumns(star.Fact, cols, reorder.GrayHist)
	if err != nil {
		return nil, err
	}
	sorted, err := reorder.ApplyStar(star, plan.Perm)
	if err != nil {
		return nil, err
	}
	s, a := newSystem(sorted.Fact)
	s.ref = query.NewExecutor(star.Fact)
	s.perm = plan.Perm
	for _, col := range cols {
		ix, err := simplebitmap.BuildCompressed(ints(sorted.Fact, col), nil)
		if err != nil {
			return nil, err
		}
		ad := query.CompressedSimpleInt{Ix: ix}
		a.add(col, query.AccessPath{Name: "wah", Index: ad, Model: query.SimpleBitmapModel()},
			ix.SizeBytes(), wholeLeaf("simplebitmap.leaf", ad))
	}
	return s, a.err
}

// check compares an answer with the scan-only reference.
func (s *system) check(p query.Predicate, got *bitvec.Vector) error {
	want, _, err := s.ref.Eval(p)
	if err != nil {
		return fmt.Errorf("reference %s: %w", p, err)
	}
	if !got.Equal(want) {
		return fmt.Errorf("%s: %d rows, reference scan %d", p, got.Count(), want.Count())
	}
	return nil
}
