package query

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/bitvec"
	"repro/internal/iostat"
	"repro/internal/obs"
	"repro/internal/table"
)

// sleepyIndex is a ColumnIndex whose Eq takes d: a slow access path.
type sleepyIndex struct {
	d time.Duration
	n int
}

func (s sleepyIndex) Eq(table.Cell) (*bitvec.Vector, iostat.Stats, error) {
	time.Sleep(s.d)
	return bitvec.New(s.n), iostat.Stats{VectorsRead: 1}, nil
}

func (sleepyIndex) In([]table.Cell) (*bitvec.Vector, iostat.Stats, error) {
	return nil, iostat.Stats{}, ErrUnsupported
}

func (sleepyIndex) Range(int64, int64) (*bitvec.Vector, iostat.Stats, error) {
	return nil, iostat.Stats{}, ErrUnsupported
}

// An Executor query slower than the 100ms latency objective must burn
// the latency SLO of a default-config scraper: executor runs feed the
// one latency histogram, which is the default SLO series.
func TestExecutorLatencyReachesSLO(t *testing.T) {
	tab := fixture(t)
	ex := NewExecutor(tab)
	ex.Use("region", sleepyIndex{d: 150 * time.Millisecond, n: tab.Len()})
	withTelemetry(t)
	s := obs.NewScraper(obs.TimeSeriesConfig{})
	s.ScrapeOnce()
	if _, _, err := ex.Eval(Eq{Col: "region", Val: table.StrCell("north")}); err != nil {
		t.Fatal(err)
	}
	smp := s.ScrapeOnce()
	if v := smp.Values["ebi_slo_latency_burn_milli"]; v <= 0 {
		t.Fatalf("ebi_slo_latency_burn_milli = %v after a 150ms executor query, want > 0", v)
	}
}

// Every re-run of a repeated planner query over the latency threshold
// (dropped to 1ns, so every run qualifies) reaches /debug/slowlog with its
// reason and an analyzed plan of that run.
func TestPreparedRerunInSlowLog(t *testing.T) {
	pl, _, _ := plannerFixture(t, 300, 16)
	withTelemetry(t)
	obs.DefaultSlowLog().SetLatencyThreshold(time.Nanosecond)
	t.Cleanup(func() { obs.DefaultSlowLog().SetLatencyThreshold(obs.DefaultSlowThreshold) })
	q := And{Preds: []Predicate{
		Range{Col: "v", Lo: 0, Hi: 11},
		In{Col: "v", Vals: []table.Cell{table.IntCell(1), table.IntCell(5)}},
	}}
	before := obs.DefaultSlowLog().Total()
	var st iostat.Stats
	for i := 0; i < 3; i++ {
		var err error
		if _, st, _, err = pl.Eval(q); err != nil {
			t.Fatal(err)
		}
	}
	if got := obs.DefaultSlowLog().Total() - before; got != 3 {
		t.Fatalf("slow log captured %d of 3 planner runs", got)
	}

	srv := httptest.NewServer(obs.Handler())
	defer srv.Close()
	code, body := fetch(t, srv, "/debug/slowlog?n=1")
	if code != 200 {
		t.Fatalf("slowlog status %d", code)
	}
	var entries []struct {
		Query  string       `json:"query"`
		Reason string       `json:"reason"`
		Stats  iostat.Stats `json:"stats"`
		Plan   *Plan        `json:"plan"`
	}
	if err := json.Unmarshal([]byte(body), &entries); err != nil {
		t.Fatalf("slowlog not JSON: %v\n%s", err, body)
	}
	if len(entries) != 1 {
		t.Fatalf("slowlog = %s", body)
	}
	e := entries[0]
	if e.Query != q.String() || !strings.HasPrefix(e.Reason, "latency") || e.Stats != st {
		t.Fatalf("entry = %q reason %q stats %+v, want %q latency %+v", e.Query, e.Reason, e.Stats, q.String(), st)
	}
	if e.Plan == nil || !e.Plan.Analyzed || e.Plan.Stats != st || e.Plan.Root == nil ||
		e.Plan.Root.Kind != KindAnd || len(e.Plan.Root.Children) != 2 || e.Plan.Root.Stats != st {
		t.Fatalf("entry plan = %+v, want the analyzed run", e.Plan)
	}
}

// EXPLAIN ANALYZE reaches the audit sink like every other entry point,
// with a prediction equal to the measured stats.
func TestExplainAnalyzeAudited(t *testing.T) {
	_, _, pl := auditFixture(t)
	sink := &testSink{stride: 1}
	SetAuditSink(sink)
	defer SetAuditSink(nil)
	for _, q := range auditQueries() {
		rows, plan, err := pl.ExplainAnalyze(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if len(sink.recs) != 1 {
			t.Fatalf("%s: sampled %d records, want 1", q, len(sink.recs))
		}
		rec := sink.recs[0]
		if rec.Source != "explain" || !rec.PredictOK || rec.Predicted != rec.Stats {
			t.Fatalf("%s: source %q predictOK %v predicted %+v measured %+v",
				q, rec.Source, rec.PredictOK, rec.Predicted, rec.Stats)
		}
		if rec.Stats != plan.Stats || !rec.Rows.Equal(rows) || len(rec.Choices) == 0 {
			t.Fatalf("%s: record diverges from the analyzed run", q)
		}
		sink.recs = sink.recs[:0]
	}
}

// With telemetry off and no audit sink, the entry points allocate
// exactly what the walker does: the record and its views are free.
func TestOffPathAllocsMatchWalker(t *testing.T) {
	_, ex, pl := auditFixture(t)
	obs.Disable()
	SetAuditSink(nil)
	ctx := context.Background()
	for _, q := range []Predicate{auditQueries()[0], auditQueries()[4]} {
		walker := testing.AllocsPerRun(50, func() {
			r := evalRun{ex: ex}
			_, _ = r.eval(ctx, q, nil)
		})
		if n := testing.AllocsPerRun(50, func() { _, _, _ = ex.Eval(q) }); n != walker {
			t.Errorf("%s: Executor.Eval allocates %v/op, the walker %v", q, n, walker)
		}
		walker = testing.AllocsPerRun(50, func() {
			r := evalRun{ex: ex, pl: pl}
			_, _ = r.eval(ctx, q, nil)
		})
		if n := testing.AllocsPerRun(50, func() { _, _, _, _ = pl.Eval(q) }); n != walker {
			t.Errorf("%s: Planner.Eval allocates %v/op, the walker %v", q, n, walker)
		}
	}
}
