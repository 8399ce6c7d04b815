package query

import (
	"testing"

	"repro/internal/core"
	"repro/internal/table"
)

// testSink records sampled executions; stride 1 samples everything,
// stride 0 declines everything (an installed-but-never-sampling sink for
// the hot-path alloc guard).
type testSink struct {
	stride int
	recs   []*AuditRecord
}

func (s *testSink) SampleQuery() bool           { return s.stride == 1 }
func (s *testSink) ObserveQuery(r *AuditRecord) { s.recs = append(s.recs, r) }

func auditFixture(t *testing.T) (*table.Table, *Executor, *Planner) {
	t.Helper()
	tab := table.MustNew("sales",
		table.NewColumn("region", table.String),
		table.NewColumn("qty", table.Int64),
	)
	regions := []string{"north", "south", "east", "west", "center"}
	for i := 0; i < 400; i++ {
		cells := []table.Cell{table.StrCell(regions[i%5]), table.IntCell(int64(i % 17))}
		if i%31 == 0 {
			cells[0] = table.NullCell()
		}
		if err := tab.AppendRow(cells...); err != nil {
			t.Fatal(err)
		}
	}
	region, err := core.Build(tab.Column("region").Strs(), tab.Column("region").NullMask(), &core.Options[string]{NullSupport: true})
	if err != nil {
		t.Fatal(err)
	}
	qty, err := core.Build(tab.Column("qty").Ints(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	ex := NewExecutor(tab)
	ex.Use("region", EBIStr{Ix: region})
	ex.Use("qty", EBIInt{Ix: qty})
	pl := NewPlanner(ex)
	if err := pl.AddPath("region", AccessPath{Name: "ebi", Index: EBIStr{Ix: region}, Model: EBIModel(region.K())}); err != nil {
		t.Fatal(err)
	}
	if err := pl.AddPath("qty", AccessPath{Name: "ebi", Index: EBIInt{Ix: qty}, Model: EBIModel(qty.K())}); err != nil {
		t.Fatal(err)
	}
	return tab, ex, pl
}

func auditQueries() []Predicate {
	return []Predicate{
		Eq{Col: "region", Val: table.StrCell("north")},
		Eq{Col: "region", Val: table.NullCell()},
		In{Col: "region", Vals: []table.Cell{table.StrCell("east"), table.StrCell("west"), table.NullCell()}},
		Range{Col: "qty", Lo: 3, Hi: 9},
		And{Preds: []Predicate{
			Eq{Col: "region", Val: table.StrCell("south")},
			Range{Col: "qty", Lo: 2, Hi: 12},
		}},
		Or{Preds: []Predicate{
			Not{Pred: Eq{Col: "region", Val: table.StrCell("east")}},
			In{Col: "qty", Vals: []table.Cell{table.IntCell(1), table.IntCell(4)}},
		}},
	}
}

// Sampled executor and planner runs must carry a prediction equal to
// the measured stats, a row clone equal to the returned rows, and working
// Rerun/Repredict closures.
func TestAuditRecordPredictionParity(t *testing.T) {
	_, ex, pl := auditFixture(t)
	sink := &testSink{stride: 1}
	SetAuditSink(sink)
	defer SetAuditSink(nil)

	for _, q := range auditQueries() {
		rows, st, err := ex.Eval(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		plRows, plSt, _, err := pl.Eval(q)
		if err != nil {
			t.Fatalf("planner %s: %v", q, err)
		}
		if len(sink.recs) != 2 {
			t.Fatalf("%s: sampled %d records, want 2", q, len(sink.recs))
		}
		for i, exp := range []struct {
			source string
			stats  any
		}{{"executor", st}, {"planner", plSt}} {
			rec := sink.recs[i]
			if rec.Source != exp.source {
				t.Fatalf("%s: record %d source %q, want %q", q, i, rec.Source, exp.source)
			}
			if !rec.PredictOK {
				t.Fatalf("%s [%s]: prediction not available", q, rec.Source)
			}
			if rec.Predicted != rec.Stats {
				t.Errorf("%s [%s]: predicted %+v, measured %+v", q, rec.Source, rec.Predicted, rec.Stats)
			}
			fresh, gen, ok := rec.Repredict()
			if !ok || fresh != rec.Predicted || gen != rec.PredictedGen {
				t.Errorf("%s [%s]: repredict (%+v, %d, %v) != sample-time (%+v, %d)",
					q, rec.Source, fresh, gen, ok, rec.Predicted, rec.PredictedGen)
			}
			rrows, rst, err := rec.Rerun()
			if err != nil {
				t.Fatalf("%s [%s]: rerun: %v", q, rec.Source, err)
			}
			if !rrows.Equal(rec.Rows) {
				t.Errorf("%s [%s]: rerun rows diverge", q, rec.Source)
			}
			if rst != rec.Stats {
				t.Errorf("%s [%s]: rerun stats %+v, recorded %+v", q, rec.Source, rst, rec.Stats)
			}
		}
		if !sink.recs[0].Rows.Equal(rows) || !sink.recs[1].Rows.Equal(plRows) {
			t.Fatalf("%s: recorded row clones diverge from returned rows", q)
		}
		sink.recs = sink.recs[:0]
	}
}

// An unregistered column evaluates by scan; the prediction must charge
// the table length, exactly like leafInner does.
func TestAuditPredictScanLeaf(t *testing.T) {
	tab, ex, pl := auditFixture(t)
	sink := &testSink{stride: 1}
	SetAuditSink(sink)
	defer SetAuditSink(nil)
	q := And{Preds: []Predicate{
		Eq{Col: "region", Val: table.StrCell("north")},
		Eq{Col: "qty", Val: table.IntCell(5)},
	}}
	delete(ex.idx, "qty")
	pl.paths["qty"] = nil
	_, st, err := ex.Eval(q)
	if err != nil {
		t.Fatal(err)
	}
	rec := sink.recs[len(sink.recs)-1]
	if !rec.PredictOK || rec.Predicted != st {
		t.Fatalf("scan-leaf predict: ok=%v predicted %+v measured %+v", rec.PredictOK, rec.Predicted, st)
	}
	if rec.Predicted.RowsScanned != tab.Len() {
		t.Fatalf("scan leaf charged %d rows, want %d", rec.Predicted.RowsScanned, tab.Len())
	}
	// Planner route: no paths on qty -> fallback choice -> executor
	// resolution -> scan.
	_, plSt, _, err := pl.Eval(q)
	if err != nil {
		t.Fatal(err)
	}
	rec = sink.recs[len(sink.recs)-1]
	if !rec.PredictOK || rec.Predicted != plSt {
		t.Fatalf("planner scan-leaf predict: ok=%v predicted %+v measured %+v", rec.PredictOK, rec.Predicted, plSt)
	}
}

// A leaf with no analytic model (string Range resolves to an executor
// scan through ErrUnsupported) must surface as PredictOK=false, never a
// wrong prediction.
func TestAuditPredictUnmodeledLeaf(t *testing.T) {
	_, ex, _ := auditFixture(t)
	sink := &testSink{stride: 1}
	SetAuditSink(sink)
	defer SetAuditSink(nil)
	if _, _, err := ex.Eval(Range{Col: "region", Lo: 1, Hi: 2}); err == nil {
		// String ranges error end to end on this fixture; if the engine
		// ever learns to answer them the record must still be honest.
		rec := sink.recs[len(sink.recs)-1]
		if rec.PredictOK {
			t.Fatal("string Range cannot have an analytic prediction")
		}
	}
	if len(sink.recs) != 0 {
		t.Fatalf("errored queries must not be sampled, got %d records", len(sink.recs))
	}
}

// The disabled hook must cost zero allocations (and the installed-but-
// unsampled hook too): the audit plane is free until a query is actually
// chosen.
func TestAuditHookZeroAllocs(t *testing.T) {
	_, ex, pl := auditFixture(t)
	var q Predicate = Eq{Col: "region", Val: table.StrCell("north")}
	rows, st, err := ex.Eval(q)
	if err != nil {
		t.Fatal(err)
	}
	exRec := queryRecord{source: "executor", pred: q, run: evalRun{ex: ex, st: st}, rows: rows}
	plRec := queryRecord{source: "planner", pred: q, run: evalRun{ex: ex, pl: pl, st: st}, rows: rows}
	SetAuditSink(nil)
	if n := testing.AllocsPerRun(200, func() {
		exRec.audit()
	}); n != 0 {
		t.Fatalf("disabled executor hook allocates %.1f/op", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		plRec.audit()
	}); n != 0 {
		t.Fatalf("disabled planner hook allocates %.1f/op", n)
	}
	SetAuditSink(&testSink{stride: 0})
	defer SetAuditSink(nil)
	if n := testing.AllocsPerRun(200, func() {
		exRec.audit()
	}); n != 0 {
		t.Fatalf("installed unsampled hook allocates %.1f/op", n)
	}
}
