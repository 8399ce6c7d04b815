package query

import (
	"context"

	"repro/internal/bitvec"
	"repro/internal/iostat"
)

// PreparedQuery is a predicate planned once and executable many times —
// the query-layer analogue of core.Prepared. The access-path routing
// (and therefore the ebi_planner_choices_total / _fallbacks_total
// accounting) happens exactly once, at Prepare time; re-executions reuse
// the bound paths. A >2x estimate-vs-actual misestimate on a leaf is
// counted into ebi_planner_misestimates_total only the first time that
// leaf drifts, so re-running the same defective plan does not inflate
// the counter.
//
// The plan is frozen: paths registered or indexes replaced after Prepare
// are not picked up. A PreparedQuery is not safe for concurrent use.
type PreparedQuery struct {
	pl   *Planner
	pred Predicate
	plan *Plan
	// family is the /debug/requests predicate-family key, computed once
	// here so re-executions label their pprof samples without paying the
	// normalization again.
	family string
}

// Prepare plans the predicate once, routing every leaf through the cost
// models, and returns the reusable compiled form.
func (pl *Planner) Prepare(p Predicate) (*PreparedQuery, error) {
	plan, err := pl.Explain(p)
	if err != nil {
		return nil, err
	}
	// Routing happened here, once: advance the routing counters now
	// rather than on every execution.
	plan.Root.Walk(func(n *PlanNode) {
		if n.Kind != KindLeaf {
			return
		}
		if n.path != nil {
			mPlannerChoices.Inc()
		} else {
			mPlannerFallbacks.Inc()
		}
	})
	return &PreparedQuery{pl: pl, pred: p, plan: plan, family: FamilyKey(p)}, nil
}

// Plan returns the estimate-only plan built at Prepare time. After an
// execution the leaf nodes carry the latest run's actuals.
func (pq *PreparedQuery) Plan() *Plan { return pq.plan }

// Eval executes the prepared plan against the current table and index
// contents.
func (pq *PreparedQuery) Eval() (*bitvec.Vector, iostat.Stats, []Choice, error) {
	return pq.EvalContext(context.Background())
}

// EvalContext is Eval with trace propagation: when telemetry is enabled
// it records an "ebi.plan.prepared" span with one child span per leaf,
// refreshes the plan nodes' resource attribution, and feeds every
// per-query view; a slow-log capture keeps a copy of the plan, since the
// next run rewrites its nodes. The parallel gate is re-checked on every
// run: the table may have grown past the threshold (or parallelism been
// toggled) since Prepare, and only the routing is frozen, not the
// degree.
func (pq *PreparedQuery) EvalContext(ctx context.Context) (*bitvec.Vector, iostat.Stats, []Choice, error) {
	rec := queryRecord{source: "prepared", pred: pq.pred, family: pq.family, root: pq.plan.Root,
		run: evalRun{ex: pq.pl.ex, pl: pq.pl, prepared: true}}
	rec.exec(ctx, "ebi.plan.prepared")
	return rec.rows, rec.run.st, rec.run.choices, rec.err
}
