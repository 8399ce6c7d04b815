package audit

import (
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/encoding"
	"repro/internal/flight"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/table"
)

// counterSnap freezes the global audit counters so tests can assert
// deltas (the counters are process-wide and shared across tests).
type counterSnap struct {
	sampled, verified, mismatches, divergence, dropped, skipped, calibDrift uint64
}

func snapCounters() counterSnap {
	return counterSnap{
		sampled:    mSampled.Value(),
		verified:   mVerified.Value(),
		mismatches: mMismatches.Value(),
		divergence: mStatsDivergence.Value(),
		dropped:    mDropped.Value(),
		skipped:    mSkipped.Value(),
		calibDrift: mCalibDrift.Value(),
	}
}

func (s counterSnap) deltas() counterSnap {
	now := snapCounters()
	return counterSnap{
		sampled:    now.sampled - s.sampled,
		verified:   now.verified - s.verified,
		mismatches: now.mismatches - s.mismatches,
		divergence: now.divergence - s.divergence,
		dropped:    now.dropped - s.dropped,
		skipped:    now.skipped - s.skipped,
		calibDrift: now.calibDrift - s.calibDrift,
	}
}

func withTelemetry(t *testing.T) {
	t.Helper()
	obs.Enable()
	t.Cleanup(obs.Disable)
}

func auditFixture(t *testing.T) (*table.Table, *query.Executor, *query.Planner) {
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
	ex := query.NewExecutor(tab)
	ex.Use("region", query.EBIStr{Ix: region})
	ex.Use("qty", query.EBIInt{Ix: qty})
	pl := query.NewPlanner(ex)
	if err := pl.AddPath("region", query.AccessPath{Name: "ebi", Index: query.EBIStr{Ix: region}, Model: query.EBIModel(region.K())}); err != nil {
		t.Fatal(err)
	}
	if err := pl.AddPath("qty", query.AccessPath{Name: "ebi", Index: query.EBIInt{Ix: qty}, Model: query.EBIModel(qty.K())}); err != nil {
		t.Fatal(err)
	}
	return tab, ex, pl
}

func auditQueries() []query.Predicate {
	return []query.Predicate{
		query.Eq{Col: "region", Val: table.StrCell("north")},
		query.Eq{Col: "region", Val: table.NullCell()},
		query.In{Col: "region", Vals: []table.Cell{table.StrCell("east"), table.StrCell("west"), table.NullCell()}},
		query.Range{Col: "qty", Lo: 3, Hi: 9},
		query.And{Preds: []query.Predicate{
			query.Eq{Col: "region", Val: table.StrCell("south")},
			query.Range{Col: "qty", Lo: 2, Hi: 12},
		}},
		query.Or{Preds: []query.Predicate{
			query.Not{Pred: query.Eq{Col: "region", Val: table.StrCell("east")}},
			query.In{Col: "qty", Vals: []table.Cell{table.IntCell(1), table.IntCell(4)}},
		}},
	}
}

// A clean engine under full sampling must produce zero mismatches and
// zero stats divergence across every source (executor, planner), with
// every sample either verified or explicitly skipped.
func TestAuditCleanRun(t *testing.T) {
	withTelemetry(t)
	tab, ex, pl := auditFixture(t)
	a := New(Config{Rate: 1, References: []Reference{ScanReference(tab)}, Name: "clean-run"})
	base := snapCounters()
	a.Start()
	defer a.Stop()

	for _, q := range auditQueries() {
		if _, _, err := ex.Eval(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if _, _, _, err := pl.Eval(q); err != nil {
			t.Fatalf("planner %s: %v", q, err)
		}
	}
	a.Flush()

	d := base.deltas()
	if d.sampled != 12 {
		t.Fatalf("sampled %d executions, want 12 (6 queries x 2 sources)", d.sampled)
	}
	if d.mismatches != 0 || d.divergence != 0 {
		t.Fatalf("clean run produced %d mismatches, %d stats divergences", d.mismatches, d.divergence)
	}
	if d.dropped != 0 {
		t.Fatalf("clean run dropped %d records", d.dropped)
	}
	if d.verified != d.sampled {
		t.Fatalf("verified %d of %d sampled (skipped %d)", d.verified, d.sampled, d.skipped)
	}

	s := a.Snapshot()
	if !s.Config.Running || s.Config.Rate != 1 || s.Config.Stride != 1 {
		t.Fatalf("snapshot config: %+v", s.Config)
	}
	if len(s.Config.References) != 1 || s.Config.References[0] != "scan" {
		t.Fatalf("snapshot references: %v", s.Config.References)
	}
	if len(s.Verdicts) != 12 {
		t.Fatalf("verdict ring holds %d, want 12", len(s.Verdicts))
	}
	for _, v := range s.Verdicts {
		if v.Verdict != "ok" {
			t.Fatalf("clean-run verdict %q (%s): %s", v.Verdict, v.Query, v.Detail)
		}
	}
	if e, ok := s.Calibration["ebi"]; !ok || e.Samples == 0 {
		t.Fatalf("planner runs produced no calibration for path ebi: %+v", s.Calibration)
	}
}

// Sampling verdicts must stay clean while the index is live-re-encoded
// and appended under the auditor: basis flips may skip a conformance
// check (the record's basis moved) but must never read as divergence,
// and shadow checks must keep passing bit for bit.
func TestAuditCleanAcrossReencode(t *testing.T) {
	withTelemetry(t)
	tab := table.MustNew("s", table.NewColumn("region", table.String))
	regions := []string{"north", "south", "east", "west", "center"}
	for i := 0; i < 300; i++ {
		if err := tab.AppendRow(table.StrCell(regions[i%5])); err != nil {
			t.Fatal(err)
		}
	}
	s, err := core.BuildSynced(tab.Column("region").Strs(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	ex := query.NewExecutor(tab)
	ex.Use("region", query.SyncedEBIStr{Ix: s})

	a := New(Config{Rate: 1, References: []Reference{ScanReference(tab)}, Name: "reencode-run"})
	base := snapCounters()
	a.Start()
	defer a.Stop()

	r := rand.New(rand.NewSource(7))
	for i := 0; i < 40; i++ {
		q := query.Eq{Col: "region", Val: table.StrCell(regions[i%5])}
		if _, _, err := ex.Eval(q); err != nil {
			t.Fatal(err)
		}
		switch i % 4 {
		case 1:
			vals := s.Values()
			if err := s.Reencode(permutedMapping(r, vals)); err != nil {
				t.Fatalf("reencode %d: %v", i, err)
			}
		case 3:
			// The table is not safe for concurrent append+scan; settle
			// in-flight shadow scans before growing it (the Synced
			// index handles its own concurrency).
			a.Flush()
			v := regions[r.Intn(5)]
			if err := tab.AppendRow(table.StrCell(v)); err != nil {
				t.Fatal(err)
			}
			if err := s.Append(v); err != nil {
				t.Fatal(err)
			}
		}
	}
	a.Flush()

	d := base.deltas()
	if d.mismatches != 0 || d.divergence != 0 {
		t.Fatalf("re-encoding run produced %d mismatches, %d divergences", d.mismatches, d.divergence)
	}
	if d.verified+d.skipped < d.sampled {
		t.Fatalf("sampled %d but only verified %d + skipped %d", d.sampled, d.verified, d.skipped)
	}
}

func permutedMapping(r *rand.Rand, values []string) *encoding.Mapping[string] {
	k := encoding.BitsFor(len(values) + 2)
	codes := make([]uint32, 0, (1<<uint(k))-1)
	for c := uint32(1); c < 1<<uint(k); c++ {
		codes = append(codes, c)
	}
	r.Shuffle(len(codes), func(i, j int) { codes[i], codes[j] = codes[j], codes[i] })
	m := encoding.NewMapping[string](k)
	for i, v := range values {
		m.MustAdd(v, codes[i])
	}
	return m
}

// Satellite fault injection, end to end: a hook that flips one result
// bit must trip the shadow check (mismatch counter, last-mismatch
// detail) and drive a flight-recorder incident bundle containing
// audit.json, reason audit-mismatch.
func TestAuditFaultInjectionRowFlip(t *testing.T) {
	withTelemetry(t)
	tab, ex, _ := auditFixture(t)

	scr := obs.NewScraper(obs.TimeSeriesConfig{Interval: time.Hour})
	scr.ScrapeOnce() // baseline: first sample reports running totals

	dir := t.TempDir()
	rec, err := flight.New(flight.Config{Dir: dir, Scraper: scr, Cooldown: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	rec.Start()
	defer rec.Stop()

	a := New(Config{Rate: 1, References: []Reference{ScanReference(tab)}, Name: "fault-rows"})
	base := snapCounters()
	a.Start()
	defer a.Stop()
	a.SetFaultHook(func(r *query.AuditRecord) {
		r.Rows.SetTo(0, !r.Rows.Get(0)) // flip one bit in the shadow-checked result
	})

	if _, _, err := ex.Eval(query.Eq{Col: "region", Val: table.StrCell("north")}); err != nil {
		t.Fatal(err)
	}
	a.Flush()

	d := base.deltas()
	if d.mismatches != 1 {
		t.Fatalf("flipped bit tripped %d mismatches, want 1", d.mismatches)
	}
	s := a.Snapshot()
	if s.LastMismatch == nil {
		t.Fatal("no last-mismatch detail recorded")
	}
	if s.LastMismatch.Reference != "scan" || s.LastMismatch.FirstDiff != 0 {
		t.Fatalf("mismatch detail: %+v", s.LastMismatch)
	}
	if len(s.Verdicts) == 0 || s.Verdicts[len(s.Verdicts)-1].Verdict != "mismatch" {
		t.Fatalf("verdict ring missing the mismatch: %+v", s.Verdicts)
	}

	// The next scrape sees the counter delta and fires the bundle.
	scr.ScrapeOnce()
	mans, err := flight.ListDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(mans) != 1 {
		t.Fatalf("captured %d bundles, want 1", len(mans))
	}
	man := mans[0]
	if man.Reason != "audit-mismatch" {
		t.Fatalf("bundle reason %q, want audit-mismatch", man.Reason)
	}
	if man.Trigger["ebi_audit_mismatches_total"] < 1 {
		t.Fatalf("bundle trigger values: %v", man.Trigger)
	}
	found := false
	for _, f := range man.Files {
		if f == "audit.json" {
			found = true
		}
	}
	if !found {
		t.Fatalf("bundle files %v missing audit.json", man.Files)
	}
	buf, err := os.ReadFile(filepath.Join(dir, man.ID, "audit.json"))
	if err != nil {
		t.Fatal(err)
	}
	var payload map[string]json.RawMessage
	if err := json.Unmarshal(buf, &payload); err != nil {
		t.Fatalf("audit.json: %v", err)
	}
	if _, ok := payload["fault-rows"]; !ok {
		t.Fatalf("audit.json keys %v missing auditor fault-rows", payload)
	}
	if !strings.Contains(string(payload["fault-rows"]), "\"mismatches\"") {
		t.Fatal("audit.json snapshot missing counters")
	}
}

// Satellite fault injection, stats side: corrupting one word of the
// reported stats must read as analytic divergence (the re-prediction on
// the unmoved basis proves the model still holds, so the recorded stats
// are the lie).
func TestAuditFaultInjectionStatsCorruption(t *testing.T) {
	withTelemetry(t)
	tab, ex, _ := auditFixture(t)
	a := New(Config{Rate: 1, References: []Reference{ScanReference(tab)}, Name: "fault-stats"})
	base := snapCounters()
	a.Start()
	defer a.Stop()
	a.SetFaultHook(func(r *query.AuditRecord) {
		r.Stats.WordsRead ^= 1 << 6 // corrupt one word of the reported stats
	})

	if _, _, err := ex.Eval(query.Eq{Col: "region", Val: table.StrCell("south")}); err != nil {
		t.Fatal(err)
	}
	a.Flush()

	d := base.deltas()
	if d.divergence != 1 {
		t.Fatalf("corrupted stats tripped %d divergences, want 1", d.divergence)
	}
	if d.mismatches != 0 {
		t.Fatalf("stats fault misread as %d row mismatches", d.mismatches)
	}
	s := a.Snapshot()
	if s.LastDivergence == nil {
		t.Fatal("no divergence detail recorded")
	}
	if s.LastDivergence.Reproducible {
		t.Fatal("injected corruption flagged reproducible; a clean rerun should match the prediction")
	}
	if s.LastDivergence.Measured == s.LastDivergence.Predicted {
		t.Fatalf("divergence detail lost the disagreement: %+v", s.LastDivergence)
	}
}

// A stats disagreement on a basis that moved between execution and
// verification (live re-encoding flip) must be skipped, never counted
// as divergence — the recorded run can no longer be re-predicted.
func TestAuditBasisMovedSkip(t *testing.T) {
	withTelemetry(t)
	column := make([]string, 200)
	regions := []string{"a", "b", "c", "d"}
	tab := table.MustNew("s", table.NewColumn("region", table.String))
	for i := range column {
		column[i] = regions[i%4]
		if err := tab.AppendRow(table.StrCell(column[i])); err != nil {
			t.Fatal(err)
		}
	}
	s, err := core.BuildSynced(column, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	ex := query.NewExecutor(tab)
	ex.Use("region", query.SyncedEBIStr{Ix: s})

	// Capture one record without a running worker, then move the basis
	// before verifying it by hand.
	cap := &captureSink{}
	query.SetAuditSink(cap)
	if _, _, err := ex.Eval(query.Eq{Col: "region", Val: table.StrCell("a")}); err != nil {
		t.Fatal(err)
	}
	query.SetAuditSink(nil)
	if len(cap.recs) != 1 {
		t.Fatalf("captured %d records, want 1", len(cap.recs))
	}
	rec := cap.recs[0]

	r := rand.New(rand.NewSource(3))
	if err := s.Reencode(permutedMapping(r, s.Values())); err != nil {
		t.Fatal(err)
	}
	rec.Stats.WordsRead ^= 1 << 6 // disagreement that can no longer be judged

	a := New(Config{Rate: 1, Name: "basis-moved"})
	base := snapCounters()
	a.verify(rec)
	d := base.deltas()
	if d.divergence != 0 {
		t.Fatalf("basis-moved disagreement counted as divergence")
	}
	if d.skipped != 1 {
		t.Fatalf("skipped %d, want 1", d.skipped)
	}
	sn := a.Snapshot()
	if len(sn.Verdicts) != 1 || sn.Verdicts[0].Verdict != "skipped-basis-moved" {
		t.Fatalf("verdicts: %+v", sn.Verdicts)
	}
}

type captureSink struct{ recs []*query.AuditRecord }

func (c *captureSink) SampleQuery() bool                 { return true }
func (c *captureSink) ObserveQuery(r *query.AuditRecord) { c.recs = append(c.recs, r) }

// A full queue must drop (and count) rather than block the query path.
func TestAuditQueueDrop(t *testing.T) {
	withTelemetry(t)
	tab, ex, _ := auditFixture(t)
	cap := &captureSink{}
	query.SetAuditSink(cap)
	for i := 0; i < 3; i++ {
		if _, _, err := ex.Eval(query.Eq{Col: "region", Val: table.StrCell("north")}); err != nil {
			t.Fatal(err)
		}
	}
	query.SetAuditSink(nil)
	_ = tab

	a := New(Config{Rate: 1, Queue: 1, Name: "drop"})
	base := snapCounters()
	for _, rec := range cap.recs {
		a.ObserveQuery(rec) // no worker running: the 1-slot queue fills once
	}
	d := base.deltas()
	if d.sampled != 3 || d.dropped != 2 {
		t.Fatalf("sampled %d dropped %d, want 3/2", d.sampled, d.dropped)
	}
	if got := a.inflight.Load(); got != 1 {
		t.Fatalf("inflight %d after drops, want 1", got)
	}
	<-a.ch
	a.inflight.Add(-1)
}

// Calibration drift is edge-triggered per path: entering the band's
// exclusion zone counts once, staying out counts nothing, and a fresh
// excursion after recovery counts again.
func TestAuditCalibrationDrift(t *testing.T) {
	withTelemetry(t)
	scr := obs.NewScraper(obs.TimeSeriesConfig{Interval: time.Hour})
	a := New(Config{
		Rate: 1, Name: "calib",
		Scraper:        scr,
		CalibrationMin: 5,
	})
	base := snapCounters()
	a.Start()
	defer a.Stop()

	bad := query.Choice{Column: "c", Op: query.OpEq, Path: "calib_fab", Cost: 1, Actual: 100}
	good := query.Choice{Column: "c", Op: query.OpEq, Path: "calib_fab", Cost: 10, Actual: 10}

	for i := 0; i < 5; i++ {
		a.observeChoice(bad)
	}
	scr.ScrapeOnce()
	if d := base.deltas(); d.calibDrift != 1 {
		t.Fatalf("excursion counted %d, want 1", d.calibDrift)
	}
	scr.ScrapeOnce() // still out of band: edge-triggered, no new count
	if d := base.deltas(); d.calibDrift != 1 {
		t.Fatalf("steady drift re-counted: %d", d.calibDrift)
	}
	s := a.Snapshot()
	if s.LastCalibDrift == nil || s.LastCalibDrift.Path != "calib_fab" {
		t.Fatalf("drift detail: %+v", s.LastCalibDrift)
	}
	if e := s.Calibration["calib_fab"]; !e.Drifting || e.RatioMilli < 2000 {
		t.Fatalf("calibration entry: %+v", e)
	}

	for i := 0; i < 40; i++ {
		a.observeChoice(good)
	}
	scr.ScrapeOnce() // recovered: back in band
	if e := a.Snapshot().Calibration["calib_fab"]; e.Drifting {
		t.Fatalf("still drifting after recovery: %+v", e)
	}
	for i := 0; i < 40; i++ {
		a.observeChoice(bad)
	}
	scr.ScrapeOnce()
	if d := base.deltas(); d.calibDrift != 2 {
		t.Fatalf("fresh excursion counted %d total, want 2", d.calibDrift)
	}

	// Fallback and infinite-cost choices carry nothing to calibrate.
	a.observeChoice(query.Choice{Column: "c", Op: query.OpEq, Path: "fallback", Cost: 1, Actual: 5})
	if _, ok := a.Snapshot().Calibration["fallback"]; ok {
		t.Fatal("fallback routing must not be calibrated")
	}
}

// Stop drains the backlog before returning: nothing sampled is silently
// forgotten on shutdown.
func TestAuditStopDrains(t *testing.T) {
	withTelemetry(t)
	tab, ex, _ := auditFixture(t)
	_ = tab
	a := New(Config{Rate: 1, References: []Reference{ScanReference(tab)}, Name: "drain"})
	base := snapCounters()
	a.Start()
	for i := 0; i < 5; i++ {
		if _, _, err := ex.Eval(query.Eq{Col: "region", Val: table.StrCell("west")}); err != nil {
			t.Fatal(err)
		}
	}
	a.Stop()
	d := base.deltas()
	if d.verified+d.skipped+d.mismatches+d.divergence+d.dropped != d.sampled {
		t.Fatalf("stop lost records: %+v", d)
	}
	if a.Snapshot().Config.Running {
		t.Fatal("snapshot still reports running after Stop")
	}
}
