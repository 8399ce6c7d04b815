package query

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/bitvec"
	"repro/internal/iostat"
	"repro/internal/obs"
)

// evalRun is one evaluation through the predicate-tree walker: the cost
// and routing decisions accumulated so far, and how leaves resolve. With
// pl nil every leaf goes to the executor (its registered index or a
// scan); otherwise leaves are routed through the planner's access paths.
type evalRun struct {
	ex      *Executor
	pl      *Planner
	st      iostat.Stats
	choices []Choice
}

// eval is the one predicate-tree walker. Leaves resolve in preorder — the
// order Choices are recorded in and the audit pairs them back with the
// predicate's leaves; And and Or fold their children left to right and
// Not complements its child, each combine charging one BoolOp. n is the
// plan node mirroring p, or nil when no plan tree is kept; with one, every
// node records its subtree's actuals, wall time and resource use (a
// window that covers its children).
func (r *evalRun) eval(ctx context.Context, p Predicate, n *PlanNode) (*bitvec.Vector, error) {
	var t0 time.Time
	var r0 obs.Resources
	if n != nil {
		t0, r0 = time.Now(), takeResources()
	}
	before := r.st
	var rows *bitvec.Vector
	var err error
	_, _, _, leaf := leafShape(p)
	switch {
	case !leaf:
		rows, err = r.combine(ctx, p, n)
	case r.pl == nil:
		rows, err = r.ex.leaf(ctx, p, &r.st)
	default:
		rows, err = r.planLeaf(ctx, p, n)
	}
	if err != nil || n == nil {
		return rows, err
	}
	n.Analyzed = true
	n.Stats = r.st.Sub(before)
	n.ActReads = jsonFloat(actualCost(n.Stats))
	n.Rows = rows.Count()
	n.ElapsedNS = time.Since(t0).Nanoseconds()
	res := takeResources().Sub(r0)
	n.CPUNanos, n.AllocBytes, n.AllocObjects = res.CPUNanos, res.AllocBytes, res.AllocObjects
	// A walker that resumed on another OS thread reads an unrelated thread
	// clock at the end of its window, which Sub clamps to zero. The window
	// covers the children's, so their CPU is a floor.
	var kids int64
	for _, c := range n.Children {
		kids += c.CPUNanos
	}
	n.CPUNanos = max(n.CPUNanos, kids)
	return rows, nil
}

// takeResources reads the resource clocks a timed plan node's window
// subtracts.
var takeResources = obs.TakeResources

// combine evaluates a combinator's children and folds them.
func (r *evalRun) combine(ctx context.Context, p Predicate, n *PlanNode) (*bitvec.Vector, error) {
	kind, children, err := combinatorShape(p)
	if err != nil {
		return nil, err
	}
	var acc *bitvec.Vector
	for i, child := range children {
		var cn *PlanNode
		if n != nil {
			cn = n.Children[i]
		}
		rows, err := r.eval(ctx, child, cn)
		if err != nil {
			return nil, err
		}
		switch {
		case i == 0:
			acc = rows
		case kind == KindAnd:
			acc.And(rows)
			r.st.BoolOps++
		default:
			acc.Or(rows)
			r.st.BoolOps++
		}
	}
	if kind == KindNot {
		acc = acc.Not()
		r.st.BoolOps++
	}
	if n != nil {
		// A leaf's estimate can change at run time (fallback), so the sum
		// is retaken over the children as they ran.
		n.EstReads = 0
		for _, cn := range n.Children {
			n.EstReads += cn.EstReads
		}
	}
	return acc, nil
}

// planLeaf is the leaf runner: it routes one leaf to an access path — the
// plan node's bound path, or the cheapest registered one when no plan is
// kept — runs it at the degree the parallel gate picks for that path's
// operation, and falls back to the executor (its Use-registered index or
// a scan) when the column has no path or the path refuses the operation.
// Each leaf runs under its own "ebi.plan.leaf" span, so per-leaf wall
// time, CPU time, and heap allocation appear in the query's trace tree.
func (r *evalRun) planLeaf(ctx context.Context, p Predicate, n *PlanNode) (*bitvec.Vector, error) {
	col, op, delta, _ := leafShape(p)
	ctx, lsp := obs.StartSpan(ctx, "ebi.plan.leaf")
	var path *AccessPath
	var cost float64
	if n != nil {
		path, cost = n.path, n.cost
	} else {
		path, cost = r.pl.choose(col, op, delta)
	}
	ch := Choice{Column: col, Op: op, Delta: delta, Path: "fallback", Cost: math.Inf(1)}
	var rows *bitvec.Vector
	var s iostat.Stats
	err := ErrUnsupported
	if path != nil {
		info := describe(path.Index, op, delta)
		deg := r.pl.parallelDegree(info)
		h0, m0 := pageStats(path.Index)
		withLeafLabels(ctx, col, op, deg, func(ctx context.Context) {
			rows, s, err = evalLeaf(ctx, path.Index, p, deg)
		})
		switch {
		case err == nil:
			h1, m1 := pageStats(path.Index)
			ch = Choice{Column: col, Op: op, Delta: delta, Path: path.Name, Cost: cost,
				Fused: info.Fused, Excess: info.excess(s.VectorsRead),
				PageHits: h1 - h0, PageMisses: m1 - m0}
			if deg > 1 {
				ch.Par = deg
			}
		case err != ErrUnsupported:
			err = fmt.Errorf("query: path %s on %s: %w", path.Name, col, err)
		}
	}
	routed := err == nil
	if err == ErrUnsupported {
		// No path, or the path refused the operation: the executor's leaf
		// answers — its internal entry point, so the shared cost counters
		// advance once, at the top level, not per fallback leaf.
		s = iostat.Stats{}
		rows, err = r.ex.leaf(ctx, p, &s)
	}
	if err != nil {
		finishLeafSpan(lsp, ch, s, err)
		return nil, err
	}
	r.st.Add(s)
	ch.Actual = actualCost(s)
	r.choices = append(r.choices, ch)
	if routed {
		mPlannerChoices.Inc()
	} else {
		mPlannerFallbacks.Inc()
	}
	if ch.Misestimated() {
		mPlannerMisestimates.Inc()
	}
	if n != nil {
		n.setChoice(ch)
	}
	finishLeafSpan(lsp, ch, s, nil)
	return rows, nil
}

// finishLeafSpan closes a leaf's trace span with its routing decision
// and cost delta attached. Nil-safe: lsp is nil while telemetry is off.
func finishLeafSpan(lsp *obs.Span, ch Choice, s iostat.Stats, err error) {
	if lsp == nil {
		return
	}
	lsp.SetAttr("choice", ch.String())
	lsp.SetStats(s)
	lsp.SetError(err)
	lsp.End()
}

// analyze is an evaluation that fills a plan tree: the routing Explain
// would show, then the walker with every node timed. The plan's header
// carries the evaluation's total Stats and wall time, and the root's
// resource totals.
func (r *evalRun) analyze(ctx context.Context, p Predicate) (*bitvec.Vector, *Plan, error) {
	t0 := time.Now()
	root, err := r.pl.explain(p)
	if err != nil {
		return nil, nil, err
	}
	rows, err := r.eval(ctx, p, root)
	if err != nil {
		return nil, nil, err
	}
	return rows, &Plan{
		Query: root.Pred, Analyzed: true, Root: root, Stats: r.st, ElapsedNS: time.Since(t0).Nanoseconds(),
		CPUNanos: root.CPUNanos, AllocBytes: root.AllocBytes, AllocObjects: root.AllocObjects,
	}, nil
}
