package query

import (
	"encoding/json"
	"io"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/table"
)

// fetch GETs a telemetry endpoint and returns status and body.
func fetch(t *testing.T, srv *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestLeafExcessAnnotation(t *testing.T) {
	pl, _, k := plannerFixture(t, 200, 16)

	// A 6-value selection is wide enough that the cost model routes it to
	// the encoded path (k+1 < 6 simple bitmaps). The leaf's Excess must
	// equal the same recomputation the planner performs from the path's
	// LeafInfo floor.
	p := Predicate(In{Col: "v", Vals: []table.Cell{
		table.IntCell(1), table.IntCell(2), table.IntCell(3),
		table.IntCell(4), table.IntCell(5), table.IntCell(6),
	}})
	_, st, choices, err := pl.Eval(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(choices) != 1 || choices[0].Path != "ebi" {
		t.Fatalf("choices = %+v", choices)
	}
	if st.VectorsRead > k {
		t.Fatalf("IN read %d vectors, k = %d", st.VectorsRead, k)
	}
	if want := leafExcessForTest(pl, "ebi", 6, st.VectorsRead); choices[0].Excess != want {
		t.Fatalf("Excess = %d, want %d", choices[0].Excess, want)
	}
	if choices[0].Excess < 0 {
		t.Fatal("negative excess")
	}

	// The Choice rendering is pinned and must not mention excess.
	if s := choices[0].String(); strings.Contains(s, "excess") {
		t.Fatalf("Choice.String leaks excess: %q", s)
	}
}

// leafExcessForTest recomputes the expected excess through the same
// LeafInfo floor the planner uses; the floor depends on the selection
// width alone, not the operation.
func leafExcessForTest(pl *Planner, pathName string, delta, vectorsRead int) int {
	for _, paths := range pl.paths {
		for i := range paths {
			if paths[i].Name == pathName {
				return describe(paths[i].Index, OpIn, delta).excess(vectorsRead)
			}
		}
	}
	return 0
}

func TestSlowQueryCarriesExcessVectors(t *testing.T) {
	withTelemetry(t)
	obs.DefaultSlowLog().SetLatencyThreshold(time.Nanosecond) // capture everything
	defer obs.DefaultSlowLog().SetLatencyThreshold(obs.DefaultSlowThreshold)

	pl, _, _ := plannerFixture(t, 300, 16)
	p := Predicate(And{Preds: []Predicate{
		Range{Col: "v", Lo: 0, Hi: 11},
		In{Col: "v", Vals: []table.Cell{table.IntCell(1), table.IntCell(5)}},
	}})
	_, plan, err := pl.ExplainAnalyze(p)
	if err != nil {
		t.Fatal(err)
	}
	wantExcess := 0
	plan.Root.Walk(func(n *PlanNode) { wantExcess += n.ExcessVectors })

	// Every analyzed leaf on the ebi path must agree with a direct
	// recomputation from the path's LeafInfo floor.
	plan.Root.Walk(func(n *PlanNode) {
		if n.Kind != KindLeaf || n.Path != "ebi" {
			return
		}
		if want := leafExcessForTest(pl, "ebi", n.Delta, n.Stats.VectorsRead); n.ExcessVectors != want {
			t.Errorf("leaf %q excess = %d, want %d", n.Pred, n.ExcessVectors, want)
		}
	})

	srv := httptest.NewServer(obs.Handler())
	defer srv.Close()
	code, body := fetch(t, srv, "/debug/slowlog?n=1")
	if code != 200 {
		t.Fatalf("slowlog status %d", code)
	}
	var entries []struct {
		Query         string `json:"query"`
		ExcessVectors int    `json:"excess_vectors"`
	}
	if err := json.Unmarshal([]byte(body), &entries); err != nil {
		t.Fatalf("slowlog not JSON: %v\n%s", err, body)
	}
	if len(entries) == 0 || entries[0].Query != p.String() {
		t.Fatalf("slowlog = %s", body)
	}
	if entries[0].ExcessVectors != wantExcess {
		t.Fatalf("slowlog excess = %d, want %d", entries[0].ExcessVectors, wantExcess)
	}
}

func TestQueryEvalSecondsHistogram(t *testing.T) {
	withTelemetry(t)
	pl, _, _ := plannerFixture(t, 100, 8)

	before := hQuerySeconds.Count()
	if _, _, err := pl.ex.Eval(Eq{Col: "v", Val: table.IntCell(0)}); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := pl.Eval(Eq{Col: "v", Val: table.IntCell(1)}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := pl.ExplainAnalyze(Eq{Col: "v", Val: table.IntCell(2)}); err != nil {
		t.Fatal(err)
	}
	if got := hQuerySeconds.Count() - before; got != 3 {
		t.Fatalf("ebi_query_seconds observed %d times, want 3", got)
	}

	// Rendered in both expositions.
	srv := httptest.NewServer(obs.Handler())
	defer srv.Close()
	if code, body := fetch(t, srv, "/metrics"); code != 200 ||
		!strings.Contains(body, "ebi_query_seconds_bucket") {
		t.Fatalf("/metrics missing eval histogram (status %d)", code)
	}
	if code, body := fetch(t, srv, "/debug/vars"); code != 200 ||
		!strings.Contains(body, "ebi_query_seconds") {
		t.Fatalf("/debug/vars missing eval histogram (status %d)", code)
	}
}
