package query

import (
	"context"
	"runtime/pprof"
	"time"

	"repro/internal/bitvec"
	"repro/internal/obs"
)

// queryRecord is one top-level evaluation — Executor.Eval, Planner.Eval
// or EXPLAIN ANALYZE — and the one source every per-query view derives
// from, in finish. It lives on the entry point's stack: with telemetry
// off and no audit sink, a run allocates nothing beyond the walker and
// renders no string.
type queryRecord struct {
	source string // AuditRecord.Source: "executor", "planner" or "explain"
	pred   Predicate
	family string    // FamilyKey(pred), computed at most once
	span   *obs.Span // root span; nil while telemetry is off
	run    evalRun   // the walker's Stats and Choices
	rows   *bitvec.Vector
	plan   *Plan // analyzed plan: EXPLAIN ANALYZE, and planner runs while traced
	err    error
}

// exec runs the evaluation under a root span named name — and, while
// telemetry is on, under the pprof "family" label — then finishes the
// record.
func (rec *queryRecord) exec(ctx context.Context, name string) {
	ctx, rec.span = obs.StartSpan(ctx, name)
	if rec.span == nil {
		rec.walk(ctx)
	} else {
		pprof.Do(ctx, pprof.Labels("family", rec.familyKey()), rec.walk)
	}
	rec.finish()
}

// walk evaluates. EXPLAIN ANALYZE, and a traced planner run so the slow
// log can keep its plan, fill an analyzed plan.
func (rec *queryRecord) walk(ctx context.Context) {
	r := &rec.run
	if rec.source == "explain" || (r.pl != nil && rec.span != nil) {
		rec.rows, rec.plan, rec.err = r.analyze(ctx, rec.pred)
	} else {
		rec.rows, rec.err = r.eval(ctx, rec.pred, nil)
	}
}

func (rec *queryRecord) familyKey() string {
	if rec.family == "" {
		rec.family = FamilyKey(rec.pred)
	}
	return rec.family
}

// finish feeds every view: while traced, the cost counters (the only
// place they advance, so the telemetry totals are exactly the sum of the
// Stats returned to callers), the root span, the latency histogram and
// its exemplar, the /debug/requests sample and the slow log; then,
// either way, the audit hook.
func (rec *queryRecord) finish() {
	if sp := rec.span; sp != nil {
		st := rec.run.st
		mQueries.Inc()
		if rec.err != nil {
			mQueryErrors.Inc()
		}
		obs.AddStats(st)
		var par, excess int
		var fused bool
		var mis []string
		choices := make([]string, len(rec.run.choices))
		for i, c := range rec.run.choices {
			choices[i] = c.String()
			if c.Misestimated() {
				mis = append(mis, choices[i])
			}
			par = max(par, c.Par)
			excess += c.Excess
			fused = fused || c.Fused
		}
		if rec.pred != nil {
			sp.SetAttr("predicate", rec.pred.String())
		}
		if rec.run.pl != nil {
			sp.SetAttr("choices", choices)
		}
		if mis != nil {
			sp.SetAttr("misestimates", mis)
		}
		sp.SetStats(st)
		sp.SetError(rec.err)
		sp.End()
		hQuerySeconds.ObserveSpan(sp.Seconds(), sp)
		var errStr string
		if rec.err != nil {
			errStr = rec.err.Error()
		}
		obs.DefaultRequests().Observe(obs.RequestSample{
			Family:        rec.familyKey(),
			Duration:      time.Duration(sp.DurationNS),
			CPUNanos:      sp.CPUNanos,
			AllocBytes:    sp.AllocBytes,
			AllocObjects:  sp.AllocObjects,
			ExcessVectors: excess,
			TraceID:       sp.TraceID,
			Err:           errStr,
		})
		if rec.err == nil {
			obs.DefaultSlowLog().Capture(time.Duration(sp.DurationNS), mis != nil, func(q *obs.SlowQuery) {
				q.Query, q.Stats = rec.pred.String(), st
				q.Par, q.Fused, q.ExcessVectors = par, fused, excess
				if rec.plan != nil {
					q.Plan = rec.plan
				}
			})
		}
	}
	rec.audit()
}
