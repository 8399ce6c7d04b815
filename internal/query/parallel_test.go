package query

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/core"
	"repro/internal/table"
)

// parallelFixture builds a multi-segment table with an EBI access path
// and the parallel gate forced on (MinWords=1) at the given degree cap.
func parallelFixture(t *testing.T, maxDegree int) (*Planner, []int64) {
	t.Helper()
	r := rand.New(rand.NewSource(17))
	n := bitvec.SegmentBits + 4097 // 2 segments
	tab := table.MustNew("t", table.NewColumn("v", table.Int64))
	col := make([]int64, n)
	for i := range col {
		col[i] = int64(r.Intn(16))
		if err := tab.AppendRow(table.IntCell(col[i])); err != nil {
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
	pl.EnableParallel(ParallelPolicy{MinWords: 1, MaxDegree: maxDegree})
	return pl, col
}

func TestParallelPolicyDegreeFor(t *testing.T) {
	pol := ParallelPolicy{MinWords: 2 * bitvec.SegmentWords, MaxDegree: 8}
	cases := []struct{ words, want int }{
		{0, 1},
		{bitvec.SegmentWords, 1},       // below MinWords
		{2 * bitvec.SegmentWords, 2},   // 2 segments < MaxDegree
		{16 * bitvec.SegmentWords, 8},  // capped by MaxDegree
		{2*bitvec.SegmentWords + 1, 3}, // partial third segment counts
	}
	for _, c := range cases {
		if got := pol.degreeFor(c.words); got != c.want {
			t.Errorf("degreeFor(%d) = %d, want %d", c.words, got, c.want)
		}
	}
}

func TestExplainAnnotatesParallelDegree(t *testing.T) {
	pl, col := parallelFixture(t, 2)
	pred := Eq{Col: "v", Val: table.IntCell(col[0])}

	plan, err := pl.Explain(pred)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Root.Parallel != 2 {
		t.Fatalf("EXPLAIN Parallel = %d, want 2", plan.Root.Parallel)
	}
	if txt := plan.Text(); !strings.Contains(txt, "par=2") {
		t.Fatalf("EXPLAIN text missing par=2:\n%s", txt)
	}

	rows, plan, err := pl.ExplainAnalyze(pred)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Root.Parallel != 2 {
		t.Fatalf("EXPLAIN ANALYZE Parallel = %d, want 2", plan.Root.Parallel)
	}
	want := 0
	for _, v := range col {
		if v == col[0] {
			want++
		}
	}
	if rows.Count() != want {
		t.Fatalf("parallel leaf returned %d rows, want %d", rows.Count(), want)
	}

	// Disabling parallelism removes the annotation entirely.
	pl.DisableParallel()
	plan, err = pl.Explain(pred)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Root.Parallel != 0 {
		t.Fatalf("disabled planner still advertises par=%d", plan.Root.Parallel)
	}
	if txt := plan.Text(); strings.Contains(txt, "par=") {
		t.Fatalf("disabled planner renders par= suffix:\n%s", txt)
	}
}

func TestChoiceStringParallelSuffix(t *testing.T) {
	c := Choice{Column: "v", Op: OpIn, Delta: 3, Path: "ebi", Cost: 4, Actual: 4}
	if s := c.String(); strings.Contains(s, "par=") {
		t.Fatalf("sequential choice renders par suffix: %s", s)
	}
	c.Par = 4
	if s := c.String(); !strings.HasSuffix(s, " par=4") {
		t.Fatalf("parallel choice missing par suffix: %s", s)
	}
}

// seqRangeEBI is an encoded-bitmap path that declines parallel for
// ranges, as a path whose range has no segmented form does.
type seqRangeEBI struct{ OrderedEBI }

// Describe implements LeafIndex: ranges are sequential only.
func (a seqRangeEBI) Describe(op Op, delta int) LeafInfo {
	info := a.OrderedEBI.Describe(op, delta)
	info.Parallel = op != OpRange
	return info
}

// TestParallelUnsupportedFallsBackSequential pins the sequential fallback:
// a path that cannot run an operation in parallel runs it sequentially on
// the same path (not through the executor fallback), and EXPLAIN predicts
// no degree for it.
func TestParallelUnsupportedFallsBackSequential(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	n := bitvec.SegmentBits + 100
	tab := table.MustNew("t", table.NewColumn("v", table.Int64))
	col := make([]int64, n)
	for i := range col {
		col[i] = int64(r.Intn(8))
		if err := tab.AppendRow(table.IntCell(col[i])); err != nil {
			t.Fatal(err)
		}
	}
	ordered, err := core.BuildOrdered(col, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	pl := NewPlanner(NewExecutor(tab))
	if err := pl.AddPath("v", AccessPath{Name: "ebi", Index: seqRangeEBI{OrderedEBI{Ix: ordered}}, Model: EBIModel(ordered.K())}); err != nil {
		t.Fatal(err)
	}
	pl.EnableParallel(ParallelPolicy{MinWords: 1, MaxDegree: 4})

	// The path's range is not segmented: it must still route to the ebi
	// path (sequential Range), not the executor fallback, and plain
	// EXPLAIN must not advertise a degree it will not run with.
	plan, err := pl.Explain(Range{Col: "v", Lo: 2, Hi: 5})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Root.Parallel != 0 {
		t.Fatalf("EXPLAIN predicts par=%d for a sequential-only range", plan.Root.Parallel)
	}
	rows, _, choices, err := pl.Eval(Range{Col: "v", Lo: 2, Hi: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(choices) != 1 || choices[0].Path != "ebi" || choices[0].Par != 0 {
		t.Fatalf("range choices = %+v, want sequential ebi routing", choices)
	}
	want := 0
	for _, v := range col {
		if v >= 2 && v <= 5 {
			want++
		}
	}
	if rows.Count() != want {
		t.Fatalf("range returned %d rows, want %d", rows.Count(), want)
	}

	// Eq on the same path parallelizes.
	_, _, choices, err = pl.Eval(Eq{Col: "v", Val: table.IntCell(3)})
	if err != nil {
		t.Fatal(err)
	}
	if choices[0].Par <= 1 {
		t.Fatalf("eq choices = %+v, want parallel", choices)
	}
}
