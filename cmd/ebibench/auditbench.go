package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/simplebitmap"
	"repro/internal/table"
	"repro/internal/workload"
)

// auditRig is the audit experiment's star-schema query stack: an
// EBI-served planner (the audited engine) plus an independent
// simple-bitmap executor for shadow checks.
type auditRig struct {
	ex    *query.Executor
	pl    *query.Planner
	refEx *query.Executor
	tab   *table.Table
}

func buildAuditRig(cfg config) (*auditRig, error) {
	r := rand.New(rand.NewSource(cfg.seed))
	star, err := workload.BuildStar(r, workload.StarConfig{
		Facts: cfg.n, Products: 200, SalesPoints: 12, Days: 730, MaxQty: 50,
	})
	if err != nil {
		return nil, err
	}
	day, err := core.BuildOrdered(star.Day, nil, nil)
	if err != nil {
		return nil, err
	}
	prod, err := core.Build(star.Product, nil, nil)
	if err != nil {
		return nil, err
	}
	ex := query.NewExecutor(star.Schema.Fact)
	ex.Use("day", query.OrderedEBI{Ix: day})
	ex.Use("product", query.EBIInt{Ix: prod})
	pl := query.NewPlanner(ex)
	simpleDay, err := simplebitmap.Build(star.Day, nil)
	if err != nil {
		return nil, err
	}
	if err := pl.AddPath("day", query.AccessPath{Name: "simple", Index: query.SimpleInt{Ix: simpleDay}, Model: query.SimpleBitmapModel()}); err != nil {
		return nil, err
	}
	if err := pl.AddPath("day", query.AccessPath{Name: "ebi", Index: query.OrderedEBI{Ix: day}, Model: query.EBIModel(day.K())}); err != nil {
		return nil, err
	}
	if err := pl.AddPath("product", query.AccessPath{Name: "ebi", Index: query.EBIInt{Ix: prod}, Model: query.EBIModel(prod.K())}); err != nil {
		return nil, err
	}

	// The reference family: the same columns served by simple bitmap
	// indexes, sharing nothing with the audited EBI stack but the table.
	simpleProd, err := simplebitmap.Build(star.Product, nil)
	if err != nil {
		return nil, err
	}
	refEx := query.NewExecutor(star.Schema.Fact)
	refEx.Use("day", query.SimpleInt{Ix: simpleDay})
	refEx.Use("product", query.SimpleInt{Ix: simpleProd})
	return &auditRig{ex: ex, pl: pl, refEx: refEx, tab: star.Schema.Fact}, nil
}

// auditWorkload is the mixed demo query set: point, IN, range, and an
// AND/OR star query, issued through both the executor and the planner so
// every audit source and both day paths get exercised.
func (rig *auditRig) auditWorkload(r *rand.Rand, rounds int) error {
	for i := 0; i < rounds; i++ {
		qs := []query.Predicate{
			query.Eq{Col: "day", Val: table.IntCell(int64(r.Intn(730)))},
			query.In{Col: "product", Vals: []table.Cell{
				table.IntCell(int64(r.Intn(200))), table.IntCell(int64(r.Intn(200))),
			}},
			query.Range{Col: "day", Lo: int64(90 + r.Intn(90)), Hi: int64(300 + r.Intn(200))},
			query.And{Preds: []query.Predicate{
				query.Range{Col: "day", Lo: 90, Hi: 269},
				query.Or{Preds: []query.Predicate{
					query.Eq{Col: "product", Val: table.IntCell(int64(r.Intn(200)))},
					query.Eq{Col: "product", Val: table.IntCell(int64(r.Intn(200)))},
				}},
			}},
		}
		for _, q := range qs {
			if _, _, err := rig.ex.Eval(q); err != nil {
				return err
			}
			if _, _, _, err := rig.pl.Eval(q); err != nil {
				return err
			}
		}
	}
	return nil
}

// runAudit demonstrates the audit plane end to end. In the default mode
// it samples every execution of a mixed star-schema workload, verifies
// each against the simple-bitmap reference family and the analytic cost
// model, and fails if anything mismatches — the "the engine audits
// clean" experiment, and then times the plane's overhead (see
// printAuditOverhead). With -fault it injects two corruptions (one result
// bit, one stats word) and exits NON-ZERO iff the plane caught both, so
// harnesses assert detection with an expected-failure invocation.
func runAudit(cfg config) error {
	obs.Enable()
	defer obs.Disable()

	rig, err := buildAuditRig(cfg)
	if err != nil {
		return err
	}
	a := audit.New(audit.Config{
		Rate:       1,
		References: []audit.Reference{audit.IndexReference("simple-family", rig.refEx)},
		Name:       "ebibench",
	})
	a.Start()
	defer a.Stop()

	mode := "clean"
	if cfg.fault {
		mode = "fault-injection"
		var flipped, corrupted bool
		a.SetFaultHook(func(rec *query.AuditRecord) {
			if !flipped {
				flipped = true
				rec.Rows.SetTo(0, !rec.Rows.Get(0)) // one flipped result bit
				return
			}
			// The stats fault must land on a plan the analytic model
			// covers, or the conformance check would (correctly) skip it.
			if !corrupted && rec.PredictOK {
				corrupted = true
				rec.Stats.WordsRead ^= 1 << 6 // one corrupted stats word
			}
		})
	}
	fmt.Printf("audit plane: sampling 100%% of a mixed star workload (%s mode, n=%d)\n", mode, cfg.n)

	r := rand.New(rand.NewSource(cfg.seed + 1))
	if err := rig.auditWorkload(r, 15); err != nil {
		return err
	}
	a.Flush()

	s := a.Snapshot()
	w := newTab()
	fmt.Fprintf(w, "sampled\tverified\tskipped\tmismatches\tstats-divergence\tdropped\t\n")
	fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%d\t%d\t\n",
		s.Sampled, s.Verified, s.Skipped, s.Mismatches, s.StatsDivergence, s.Dropped)
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Println("\nplanner calibration (1000 = perfectly calibrated):")
	w = newTab()
	fmt.Fprintf(w, "path\tratio_milli\tsamples\tdrifting\t\n")
	for path, c := range s.Calibration {
		fmt.Fprintf(w, "%s\t%d\t%d\t%v\t\n", path, c.RatioMilli, c.Samples, c.Drifting)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if s.LastMismatch != nil {
		fmt.Printf("\nlast mismatch: %s vs %s, first diff row %d (expected %d rows, got %d)\n",
			s.LastMismatch.Query, s.LastMismatch.Reference,
			s.LastMismatch.FirstDiff, s.LastMismatch.ExpectedCount, s.LastMismatch.ActualCount)
	}
	if s.LastDivergence != nil {
		fmt.Printf("last stats divergence: %s measured %v predicted %v (reproducible=%v)\n",
			s.LastDivergence.Query, s.LastDivergence.Measured,
			s.LastDivergence.Predicted, s.LastDivergence.Reproducible)
	}

	if cfg.fault {
		if s.Mismatches >= 1 && s.StatsDivergence >= 1 {
			// Detection is the success condition; the non-zero exit is
			// how unattended harnesses assert it happened.
			return fmt.Errorf("audit: injected faults DETECTED (%d mismatches, %d stats divergences) — exiting non-zero so the harness can assert detection", s.Mismatches, s.StatsDivergence)
		}
		fmt.Printf("\nWARNING: injected faults NOT detected (%d mismatches, %d divergences)\n", s.Mismatches, s.StatsDivergence)
		return nil
	}
	if s.Mismatches > 0 || s.StatsDivergence > 0 {
		return fmt.Errorf("audit: clean workload failed verification: %d mismatches, %d stats divergences", s.Mismatches, s.StatsDivergence)
	}
	fmt.Printf("\nall %d sampled executions audit clean (%d conformance checks skipped: unmodeled plans)\n", s.Verified, s.Skipped)

	a.Stop()
	obs.Disable()
	return printAuditOverhead(rig)
}

// printAuditOverhead times what the audit plane costs the serving path:
// the mixed AND/OR planner query at 0%, 1% and 10% sampling against the
// simple-bitmap reference family. runAudit calls it with telemetry off,
// so the ratio to the unsampled median is the audit hook's own cost.
func printAuditOverhead(rig *auditRig) error {
	mixed := query.And{Preds: []query.Predicate{
		query.Range{Col: "day", Lo: 90, Hi: 269},
		query.Or{Preds: []query.Predicate{
			query.Eq{Col: "product", Val: table.IntCell(7)},
			query.Eq{Col: "product", Val: table.IntCell(11)},
		}},
	}}
	// Warm caches and code paths before any rate is timed, so the
	// unsampled baseline doesn't absorb one-time costs.
	for i := 0; i < benchIters; i++ {
		if _, _, _, err := rig.pl.Eval(mixed); err != nil {
			return err
		}
	}

	// The rates take turns in batches of benchIters runs, so a drift in
	// the host's or the heap's state lands on every rate alike: timed one
	// rate after another, the unsampled median read up to twice the
	// sampled ones. Each auditor keeps its sampling counter across its
	// batches, so 1% sampling samples over the rounds.
	rates := []float64{0, 0.01, 0.10}
	auditors := make([]*audit.Auditor, len(rates))
	for i, rate := range rates {
		if rate > 0 {
			auditors[i] = audit.New(audit.Config{
				Rate:       rate,
				References: []audit.Reference{audit.IndexReference("simple-family", rig.refEx)},
				Name:       "ebibench-overhead",
			})
		}
	}
	const rounds = 8
	durs := make([][]int64, len(rates))
	for r := 0; r < rounds; r++ {
		for i, a := range auditors {
			if a != nil {
				a.Start()
			}
			for j := 0; j < benchIters; j++ {
				t0 := time.Now()
				rig.pl.Eval(mixed) // the warm-up returned no error
				durs[i] = append(durs[i], time.Since(t0).Nanoseconds())
			}
			if a != nil {
				a.Flush()
				a.Stop()
			}
		}
	}

	fmt.Printf("\naudit overhead: the mixed AND/OR planner query, %d runs per sampling rate in %d interleaved rounds\n",
		rounds*benchIters, rounds)
	w := newTab()
	fmt.Fprintf(w, "sampling\tmed\tp99\tratio(med)\t\n")
	baseMed, _ := medP99(durs[0])
	for i, rate := range rates {
		med, p99 := medP99(durs[i])
		fmt.Fprintf(w, "%g%%\t%s\t%s\t%.3f\t\n", rate*100, fmtNS(med), fmtNS(p99), ratioOf(med, baseMed))
	}
	return w.Flush()
}
