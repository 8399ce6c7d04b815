package query

import (
	"context"
	"fmt"
	"math"

	"repro/internal/bitvec"
	"repro/internal/iostat"
)

// Planner is a cost-based access-path selector. Section 3 of the paper
// establishes when each index wins — simple bitmaps for point selections
// (c_s = 1 vs c_e = k), encoded bitmaps once the selection widens past
// δ ≈ log2 m — and the planner operationalizes exactly that: each column
// may register several access paths with a cost model, and every leaf
// predicate is routed to the cheapest one.
type Planner struct {
	ex    *Executor
	paths map[string][]AccessPath
	par   *ParallelPolicy // nil = sequential-only leaf execution
}

// AccessPath couples an index with its cost model and a display name.
type AccessPath struct {
	Name  string
	Index ColumnIndex
	Model CostModel
}

// Op identifies the leaf operation being costed.
type Op int

// Leaf operations.
const (
	OpEq Op = iota
	OpIn
	OpRange
)

func (op Op) String() string {
	switch op {
	case OpEq:
		return "eq"
	case OpIn:
		return "in"
	case OpRange:
		return "range"
	}
	return fmt.Sprintf("op(%d)", int(op))
}

// CostModel estimates the cost (in the paper's vector-read currency,
// with row scans converted at a fixed exchange rate) of a leaf operation.
// delta is the selection width: 1 for Eq, the list length for In, and the
// value-interval width for Range. Return +Inf for unsupported operations.
type CostModel func(op Op, delta int) float64

// rowCostWeight converts scanned rows into vector-read-equivalents: one
// vector read moves n/64 words, one row scan moves ~1 value; with the
// paper's disk-oriented view a vector read is far cheaper per row covered.
const rowCostWeight = 1.0 / 512

// SimpleBitmapModel prices a simple bitmap index: c_s = δ vector reads.
func SimpleBitmapModel() CostModel {
	return func(op Op, delta int) float64 {
		if delta < 1 {
			return 0
		}
		return float64(delta)
	}
}

// EBIModel prices an encoded bitmap index with k vectors: every selection
// reads at most k vectors (Eq reads k; ranges read at most k after
// reduction, or through their interval cover on an ordered code space),
// and a range is priced k+1.
func EBIModel(k int) CostModel {
	return func(op Op, delta int) float64 {
		if delta < 1 {
			return 0
		}
		switch op {
		case OpRange:
			return float64(k) + 1
		default:
			return float64(k)
		}
	}
}

// BSIModel prices a bit-sliced index with k slices: Eq reads k, a range
// reads at most 2k, an IN-list probes per value.
func BSIModel(k int) CostModel {
	return func(op Op, delta int) float64 {
		if delta < 1 {
			return 0
		}
		switch op {
		case OpEq:
			return float64(k)
		case OpIn:
			return float64(delta * k)
		default:
			return float64(2 * k)
		}
	}
}

// BTreeModel prices a value-list B-tree: a descent per probed value plus
// the qualifying rows, charged at the row weight.
func BTreeModel(height, rowsPerValue int) CostModel {
	return func(op Op, delta int) float64 {
		if delta < 1 {
			return 0
		}
		return float64(delta) * (float64(height) + float64(rowsPerValue)*rowCostWeight)
	}
}

// NewPlanner returns a planner over the executor's table. The executor's
// own per-column indexes (registered with Use) remain the fallback when a
// column has no registered paths.
func NewPlanner(ex *Executor) *Planner {
	return &Planner{ex: ex, paths: make(map[string][]AccessPath)}
}

// AddPath registers an access path for a column.
func (pl *Planner) AddPath(col string, p AccessPath) error {
	if p.Index == nil || p.Model == nil {
		return fmt.Errorf("query: access path %q needs an index and a cost model", p.Name)
	}
	pl.paths[col] = append(pl.paths[col], p)
	return nil
}

// Choice records one routing decision for explain-style output. Cost is
// the chosen path's estimate in the model's vector-read currency; Actual
// is what the evaluation really cost in the same currency (vectors plus
// tree nodes plus row scans at rowCostWeight), so estimate-vs-actual
// drift is visible per leaf.
type Choice struct {
	Column string
	Op     Op
	Delta  int
	Path   string
	Cost   float64
	Actual float64
	// Par is the parallelism degree the leaf executed with; 0 or 1 means
	// sequential (gate declined, path not parallel-capable, or parallel
	// execution disabled).
	Par int
	// Fused reports that the chosen path evaluates this operation through
	// the fused single-pass kernel (see LeafInfo). Fallback routings are
	// never fused.
	Fused bool
	// Excess is the leaf's vector reads beyond the Theorem 2.2/2.3
	// theoretical minimum for its selection width — 0 when the path
	// states no floor (LeafInfo.MinVectors) or read no avoidable vectors.
	// Deliberately absent from String(), whose rendering is pinned.
	Excess int
	// PageHits/PageMisses are the buffer-cache page touches this leaf's
	// evaluation charged — populated only when the path's index
	// implements PageStatsIndex, and, like Excess, absent from the
	// pinned String() rendering.
	PageHits   int
	PageMisses int
}

// Misestimated reports whether the estimate was off by more than 2x the
// actual cost in either direction. Fallback routings (infinite estimate)
// are never counted; costs under one vector read are clamped to one so
// near-free leaves don't produce spurious ratios.
func (c Choice) Misestimated() bool {
	if math.IsInf(c.Cost, 1) {
		return false
	}
	est, act := math.Max(c.Cost, 1), math.Max(c.Actual, 1)
	return est > 2*act || act > 2*est
}

// String renders the decision for traces and explain output. The
// parallelism and fused suffixes appear only when set, so renderings of
// sequential non-fused decisions are byte-identical to older versions.
func (c Choice) String() string {
	s := fmt.Sprintf("%s %s δ=%d -> %s (est=%.4g actual=%.4g)",
		c.Column, c.Op, c.Delta, c.Path, c.Cost, c.Actual)
	if c.Par > 1 {
		s += fmt.Sprintf(" par=%d", c.Par)
	}
	if c.Fused {
		s += " fused"
	}
	return s
}

// actualCost converts an evaluation's Stats into the cost model's
// currency: vector reads and node visits at weight 1, row scans at
// rowCostWeight.
func actualCost(s iostat.Stats) float64 {
	return float64(s.VectorsRead) + float64(s.NodesRead) + float64(s.RowsScanned)*rowCostWeight
}

// choose returns the cheapest registered path for the leaf, or nil when
// the column has none.
func (pl *Planner) choose(col string, op Op, delta int) (*AccessPath, float64) {
	var best *AccessPath
	bestCost := math.Inf(1)
	for i := range pl.paths[col] {
		p := &pl.paths[col][i]
		if c := p.Model(op, delta); c < bestCost {
			best, bestCost = p, c
		}
	}
	return best, bestCost
}

// Eval plans and evaluates the predicate, returning the row set, the
// accumulated access cost, and the routing decisions taken.
func (pl *Planner) Eval(p Predicate) (*bitvec.Vector, iostat.Stats, []Choice, error) {
	return pl.EvalContext(context.Background(), p)
}

// EvalContext is Eval with trace propagation: when telemetry is enabled
// it records an "ebi.plan.eval" span carrying every routing decision and
// flagging leaves whose cost estimate drifted >2x from the actual cost,
// with one child span per leaf so CPU time and heap allocation roll up
// the plan tree. Enabled evaluations run through the plan-tree builder
// so the slow-query log can capture the full analyzed plan of any query
// over the latency threshold or carrying a misestimated leaf, and the
// evaluation's latency histogram bucket keeps an exemplar pointing back
// at this trace.
func (pl *Planner) EvalContext(ctx context.Context, p Predicate) (*bitvec.Vector, iostat.Stats, []Choice, error) {
	rec := queryRecord{source: "planner", pred: p, run: evalRun{ex: pl.ex, pl: pl}}
	rec.exec(ctx, "ebi.plan.eval")
	return rec.rows, rec.run.st, rec.run.choices, rec.err
}

// leafShape extracts the (column, operation, selection width) triple of a
// leaf predicate; ok is false for combinators.
func leafShape(p Predicate) (col string, op Op, delta int, ok bool) {
	switch p := p.(type) {
	case Eq:
		return p.Col, OpEq, 1, true
	case In:
		return p.Col, OpIn, len(p.Vals), true
	case Range:
		// The integers in [Lo, Hi], saturated at math.MaxInt: an open
		// bound (Lo = MinInt64 or Hi = MaxInt64) must not wrap to an empty
		// range, which every cost model prices at 0.
		d := 0
		if p.Hi >= p.Lo {
			d = int(min(uint64(p.Hi)-uint64(p.Lo), math.MaxInt-1)) + 1
		}
		return p.Col, OpRange, d, true
	}
	return "", 0, 0, false
}
