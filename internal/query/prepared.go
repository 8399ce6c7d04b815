package query

import (
	"context"
	"time"

	"repro/internal/bitvec"
	"repro/internal/iostat"
	"repro/internal/obs"
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
// refreshes the plan nodes' resource attribution, and leaves an
// exemplar on the latency histogram's sample bucket.
func (pq *PreparedQuery) EvalContext(ctx context.Context) (*bitvec.Vector, iostat.Stats, []Choice, error) {
	t0 := time.Now()
	var sp *obs.Span
	defer func() { hQueryEvalSeconds.ObserveSpan(time.Since(t0).Seconds(), sp) }()
	ctx, sp = obs.StartSpan(ctx, "ebi.plan.prepared")
	// Resource capture costs two runtime/metrics reads plus a clock
	// syscall per node, so prepared re-runs — the hot path — only pay it
	// while telemetry is on (EXPLAIN ANALYZE, by contrast, always pays: it
	// is explicitly a diagnostic). The parallel gate is re-checked on every
	// run: the table may have grown past the threshold (or parallelism been
	// toggled) since Prepare, and only the routing is frozen, not the
	// degree.
	r := &evalRun{ex: pq.pl.ex, pl: pq.pl, timed: obs.On(), prepared: true}
	var rows *bitvec.Vector
	var err error
	withFamily(ctx, pq.family, func(ctx context.Context) {
		rows, err = r.eval(ctx, pq.pred, pq.plan.Root)
	})
	r.finish(sp, pq.pred, err)
	pq.pl.auditObserve("prepared", pq.pred, rows, r.st, r.choices, sp, err)
	return rows, r.st, r.choices, err
}
