package query

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/iostat"
	"repro/internal/obs"
	"repro/internal/table"
)

// TestExplainAnalyzeStatsExact is the acceptance check for the plan tree:
// on a mixed AND/OR query, the root node's Stats must equal the
// evaluation's returned iostat.Stats exactly, the plan header must carry
// the same total, and the leaves' VectorsRead must sum to the total's.
func TestExplainAnalyzeStatsExact(t *testing.T) {
	pl, col, _ := plannerFixture(t, 1000, 32)
	p := And{Preds: []Predicate{
		Range{Col: "v", Lo: 0, Hi: 15}, // wide -> ebi
		Or{Preds: []Predicate{
			Eq{Col: "v", Val: table.IntCell(3)},
			Eq{Col: "v", Val: table.IntCell(7)},
		}},
	}}
	rows, plan, err := pl.ExplainAnalyze(p)
	if err != nil {
		t.Fatal(err)
	}

	// Evaluation totals flow through three places; all must agree.
	want, _, _, err := pl.Eval(p)
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Equal(want) {
		t.Fatal("ExplainAnalyze rows differ from Eval rows")
	}
	if plan.Root.Stats != plan.Stats {
		t.Fatalf("root stats %+v != plan total %+v", plan.Root.Stats, plan.Stats)
	}
	if plan.Stats.VectorsRead == 0 {
		t.Fatalf("expected an indexed evaluation, got %+v", plan.Stats)
	}

	// The tree partitions the work: combinator stats are the sum of their
	// children plus their own boolean ops, and leaf vector reads add up to
	// the total exactly.
	var leafVectors, leaves int
	plan.Root.Walk(func(n *PlanNode) {
		if !n.Analyzed {
			t.Fatalf("node %q not analyzed", n.Pred)
		}
		if n.Kind == KindLeaf {
			leaves++
			leafVectors += n.Stats.VectorsRead
			return
		}
		var sum iostat.Stats
		for _, c := range n.Children {
			sum.Add(c.Stats)
		}
		if sum.VectorsRead != n.Stats.VectorsRead {
			t.Fatalf("%s children vectors %d != node %d", n.Kind, sum.VectorsRead, n.Stats.VectorsRead)
		}
		if n.Stats.BoolOps != sum.BoolOps+len(n.Children)-1 {
			t.Fatalf("%s bool ops %d, children %d + %d combines", n.Kind, n.Stats.BoolOps, sum.BoolOps, len(n.Children)-1)
		}
	})
	if leaves != 3 {
		t.Fatalf("expected 3 leaves, saw %d", leaves)
	}
	if leafVectors != plan.Stats.VectorsRead {
		t.Fatalf("leaf vector reads %d != total %d", leafVectors, plan.Stats.VectorsRead)
	}
	if plan.Root.Rows != rows.Count() {
		t.Fatalf("root rows %d != returned %d", plan.Root.Rows, rows.Count())
	}

	// Correctness of the result itself.
	for i, v := range col {
		wantRow := (v >= 0 && v <= 15) && (v == 3 || v == 7)
		if rows.Get(i) != wantRow {
			t.Fatal("analyzed result wrong")
		}
	}
}

// TestExplainGoldenText pins the EXPLAIN (plan-only) tree rendering. The
// estimates are the cost models' outputs: δ=8 routes to the encoded index
// at k+1 reads, its interval cover running in the fused kernel, point
// selections to the simple index at 1 read each.
func TestExplainGoldenText(t *testing.T) {
	pl, _, k := plannerFixture(t, 100, 16)
	plan, err := pl.Explain(And{Preds: []Predicate{
		Range{Col: "v", Lo: 0, Hi: 7},
		Or{Preds: []Predicate{
			Eq{Col: "v", Val: table.IntCell(1)},
			Eq{Col: "v", Val: table.IntCell(2)},
		}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Analyzed {
		t.Fatal("Explain must not mark the plan analyzed")
	}
	want := fmt.Sprintf(`EXPLAIN (0 <= v <= 7 AND (v = 1 OR v = 2))
AND est=%d
├─ leaf v range δ=8 via ebi est=%d fused
└─ OR est=2
   ├─ leaf v eq δ=1 via simple est=1
   └─ leaf v eq δ=1 via simple est=1
`, k+3, k+1)
	if got := plan.Text(); got != want {
		t.Fatalf("EXPLAIN text drifted:\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestChoiceStringGolden pins the Choice rendering, which traces, spans,
// and the explain tree all embed.
func TestChoiceStringGolden(t *testing.T) {
	cases := []struct {
		c    Choice
		want string
	}{
		{
			Choice{Column: "v", Op: OpIn, Delta: 3, Path: "ebi", Cost: 4, Actual: 3},
			"v in δ=3 -> ebi (est=4 actual=3)",
		},
		{
			Choice{Column: "day", Op: OpRange, Delta: 90, Path: "simple", Cost: 90, Actual: 20.25},
			"day range δ=90 -> simple (est=90 actual=20.25)",
		},
		{
			Choice{Column: "s", Op: OpEq, Delta: 1, Path: "fallback", Cost: math.Inf(1), Actual: 0.5},
			"s eq δ=1 -> fallback (est=+Inf actual=0.5)",
		},
		{
			Choice{Column: "v", Op: OpIn, Delta: 3, Path: "ebi", Cost: 4, Actual: 3, Fused: true},
			"v in δ=3 -> ebi (est=4 actual=3) fused",
		},
		{
			Choice{Column: "v", Op: OpIn, Delta: 8, Path: "ebi", Cost: 4, Actual: 4, Par: 4, Fused: true},
			"v in δ=8 -> ebi (est=4 actual=4) par=4 fused",
		},
	}
	for _, tc := range cases {
		if got := tc.c.String(); got != tc.want {
			t.Errorf("Choice.String() = %q, want %q", got, tc.want)
		}
	}
}

// TestExplainFallbackLeaf checks that a column with no registered paths
// plans as a fallback leaf with an infinite estimate, and that the
// estimate survives a JSON round trip (encoding/json cannot represent
// +Inf natively).
func TestExplainFallbackLeaf(t *testing.T) {
	tab := table.MustNew("t", table.NewColumn("v", table.Int64))
	_ = tab.AppendRow(table.IntCell(7))
	pl := NewPlanner(NewExecutor(tab))
	plan, err := pl.Explain(Eq{Col: "v", Val: table.IntCell(7)})
	if err != nil {
		t.Fatal(err)
	}
	leaf := plan.Root
	if leaf.Kind != KindLeaf || leaf.Path != "fallback" {
		t.Fatalf("leaf = %+v", leaf)
	}
	if !math.IsInf(float64(leaf.EstReads), 1) {
		t.Fatalf("fallback estimate = %v, want +Inf", leaf.EstReads)
	}
	if !strings.Contains(plan.Text(), "via fallback est=+Inf") {
		t.Fatalf("text rendering lost the fallback: %s", plan.Text())
	}

	raw, err := plan.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Plan
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(float64(back.Root.EstReads), 1) {
		t.Fatalf("JSON round trip lost +Inf: %v", back.Root.EstReads)
	}
}

// TestMisestimatedQueryInSlowLog is the end-to-end acceptance check for
// the slow-query pipeline: a deliberately misestimated query (>2x drift
// via a lying cost model) must appear at /debug/slowlog with its full
// analyzed plan attached.
func TestMisestimatedQueryInSlowLog(t *testing.T) {
	pl, _, _ := plannerFixture(t, 500, 16)
	for i := range pl.paths["v"] {
		if pl.paths["v"][i].Name == "simple" {
			// Claims one vector read for everything; a δ=12 IN-list on the
			// simple index actually reads 12, a >2x drift.
			pl.paths["v"][i].Model = func(op Op, delta int) float64 { return 1 }
		}
	}

	withTelemetry(t)
	totalBefore := obs.DefaultSlowLog().Total()

	vals := make([]table.Cell, 12)
	for i := range vals {
		vals[i] = table.IntCell(int64(i))
	}
	if _, _, _, err := pl.Eval(In{Col: "v", Vals: vals}); err != nil {
		t.Fatal(err)
	}
	if got := obs.DefaultSlowLog().Total(); got != totalBefore+1 {
		t.Fatalf("slow log total = %d, want %d", got, totalBefore+1)
	}

	srv := httptest.NewServer(obs.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/debug/slowlog?n=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var entries []struct {
		Query  string `json:"query"`
		Reason string `json:"reason"`
		Plan   *struct {
			Analyzed bool `json:"analyzed"`
			Root     *struct {
				Kind        string `json:"kind"`
				Path        string `json:"path"`
				Misestimate bool   `json:"misestimate"`
			} `json:"root"`
		} `json:"plan"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&entries); err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("slowlog returned %d entries", len(entries))
	}
	e := entries[0]
	if !strings.Contains(e.Query, "v IN") {
		t.Fatalf("captured query = %q", e.Query)
	}
	if e.Reason != "misestimate" {
		t.Fatalf("capture reason = %q, want misestimate", e.Reason)
	}
	if e.Plan == nil || !e.Plan.Analyzed || e.Plan.Root == nil {
		t.Fatalf("capture lost the analyzed plan: %+v", e)
	}
	if e.Plan.Root.Kind != KindLeaf || e.Plan.Root.Path != "simple" || !e.Plan.Root.Misestimate {
		t.Fatalf("captured plan root = %+v", e.Plan.Root)
	}
}

// TestExplainAnalyzeMatchesEvalChoices checks that the analyzed path
// (telemetry on) produces the identical routing decisions as the plain
// path (telemetry off), so enabling observability cannot change plans.
func TestExplainAnalyzeMatchesEvalChoices(t *testing.T) {
	pl, _, _ := plannerFixture(t, 800, 32)
	p := And{Preds: []Predicate{
		Range{Col: "v", Lo: 0, Hi: 19},
		Not{Pred: Eq{Col: "v", Val: table.IntCell(5)}},
	}}

	obs.Disable()
	rowsOff, stOff, choicesOff, err := pl.Eval(p)
	if err != nil {
		t.Fatal(err)
	}

	withTelemetry(t)
	rowsOn, stOn, choicesOn, err := pl.Eval(p)
	if err != nil {
		t.Fatal(err)
	}

	if !rowsOff.Equal(rowsOn) {
		t.Fatal("telemetry changed the result rows")
	}
	if stOff != stOn {
		t.Fatalf("telemetry changed the stats: %+v vs %+v", stOff, stOn)
	}
	if len(choicesOff) != len(choicesOn) {
		t.Fatalf("choice count drifted: %d vs %d", len(choicesOff), len(choicesOn))
	}
	for i := range choicesOff {
		if choicesOff[i] != choicesOn[i] {
			t.Fatalf("choice %d drifted: %+v vs %+v", i, choicesOff[i], choicesOn[i])
		}
	}
}
