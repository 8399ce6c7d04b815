package main

// The traced run times each layer from outside: for every query it takes
// the routing from Planner.Explain, runs each leaf through the chosen
// index's own public calls with a span around each layer, combines leaves
// with bitvec and maps the result back. The decomposed row set must equal
// the plain evaluation's bit for bit.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime/metrics"
	"sort"
	"time"

	"repro/internal/bitvec"
	"repro/internal/boolmin"
	"repro/internal/core"
	"repro/internal/iostat"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/reorder"
	"repro/internal/table"
)

// span is one timed interval; Parent indexes the span list (-1 for a
// query's root span).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Query  int    `json:"query"`
}

// tracer keeps spans in memory plus the counts taken at the same
// boundaries.
type tracer struct {
	base  time.Time
	spans []span
	cur   int
	query int

	reduceCalls, reduceRepeats, cubes int
	kernelVectors, kernelWords        int
	combineOps                        int
	reduced                           map[string]bool
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), cur: -1, reduced: make(map[string]bool)}
}

func (t *tracer) begin(name string) int {
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.base)), Parent: t.cur, Query: t.query})
	t.cur = len(t.spans) - 1
	return t.cur
}

func (t *tracer) end(id int) {
	t.spans[id].End = int64(time.Since(t.base))
	t.cur = t.spans[id].Parent
}

// leafRunner evaluates one leaf predicate the way its access path does,
// with a span around each layer's public call.
type leafRunner func(t *tracer, p query.Predicate) (*bitvec.Vector, error)

// wholeLeaf times a leaf as one call into its adapter.
func wholeLeaf(layer string, ix query.ColumnIndex) leafRunner {
	return func(t *tracer, p query.Predicate) (*bitvec.Vector, error) {
		id := t.begin(layer)
		defer t.end(id)
		rows, _, err := leafCall(ix, p)
		return rows, err
	}
}

func leafCall(ix query.ColumnIndex, p query.Predicate) (*bitvec.Vector, iostat.Stats, error) {
	switch p := p.(type) {
	case query.Eq:
		return ix.Eq(p.Val)
	case query.In:
		return ix.In(p.Vals)
	case query.Range:
		return ix.Range(p.Lo, p.Hi)
	}
	return nil, iostat.Stats{}, fmt.Errorf("%s is not a leaf", p)
}

// ebiLeaf splits IN and range-by-rewrite leaves on an encoded bitmap index
// into reduce -> compile -> kernel. Eq leaves run whole: they use the
// index's per-code program cache. With ordered set, ranges run whole
// through the MSB-first comparison pass.
func ebiLeaf(ix *core.Index[int64], ordered *core.OrderedIndex[int64]) leafRunner {
	eqs := query.EBIInt{Ix: ix}
	srcs := sources(ix)
	return func(t *tracer, p query.Predicate) (*bitvec.Vector, error) {
		switch p := p.(type) {
		case query.Eq:
			id := t.begin("core.eq")
			defer t.end(id)
			rows, _, err := eqs.Eq(p.Val)
			return rows, err
		case query.In:
			return t.reduce(ix, srcs, p.Col, func() []int64 { return nonNull(p.Vals) }), nil
		case query.Range:
			if ordered == nil {
				return t.reduce(ix, srcs, p.Col, func() []int64 { return valuesIn(ix.Values(), p.Lo, p.Hi) }), nil
			}
			id := t.begin("core.range")
			defer t.end(id)
			rows, _ := ordered.Range(p.Lo, p.Hi)
			return rows, nil
		}
		return nil, fmt.Errorf("%s is not a leaf", p)
	}
}

// syncedLeaf is ebiLeaf for a quiescent core.Synced index: snap is its
// live snapshot, which IN and range leaves reduce against.
func syncedLeaf(sx *core.Synced[int64], snap *core.Index[int64]) leafRunner {
	eqs := query.SyncedEBIInt{Ix: sx}
	srcs := sources(snap)
	return func(t *tracer, p query.Predicate) (*bitvec.Vector, error) {
		switch p := p.(type) {
		case query.Eq:
			id := t.begin("core.eq")
			defer t.end(id)
			rows, _, err := eqs.Eq(p.Val)
			return rows, err
		case query.In:
			return t.reduce(snap, srcs, p.Col, func() []int64 { return nonNull(p.Vals) }), nil
		case query.Range:
			return t.reduce(snap, srcs, p.Col, func() []int64 { return valuesIn(sx.Values(), p.Lo, p.Hi) }), nil
		}
		return nil, fmt.Errorf("%s is not a leaf", p)
	}
}

func sources(ix *core.Index[int64]) []bitvec.WordSource {
	srcs := make([]bitvec.WordSource, ix.K())
	for i := range srcs {
		srcs[i] = ix.Vector(i)
	}
	return srcs
}

func nonNull(cells []table.Cell) []int64 {
	out := make([]int64, 0, len(cells))
	for _, c := range cells {
		if !c.Null {
			out = append(out, c.I)
		}
	}
	return out
}

func valuesIn(domain []int64, lo, hi int64) []int64 {
	var out []int64
	for _, v := range domain {
		if v >= lo && v <= hi {
			out = append(out, v)
		}
	}
	return out
}

// reduce runs value -> code mapping plus logical reduction, compilation
// and the fused kernel as three spans.
func (t *tracer) reduce(ix *core.Index[int64], srcs []bitvec.WordSource, col string, values func() []int64) *bitvec.Vector {
	id := t.begin("core.reduce")
	vals := values()
	expr := ix.ExprFor(vals)
	t.end(id)
	id = t.begin("boolmin.compile")
	prog := boolmin.Compile(expr)
	t.end(id)
	id = t.begin("boolmin.kernel")
	dst := bitvec.New(ix.Len())
	res := prog.EvalInto(dst, srcs)
	t.end(id)

	t.reduceCalls++
	t.cubes += len(expr.Cubes)
	t.kernelVectors += res.VectorsRead
	t.kernelWords += res.WordsRead
	sorted := append([]int64(nil), vals...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	key := fmt.Sprint(col, sorted)
	if t.reduced[key] {
		t.reduceRepeats++
	}
	t.reduced[key] = true
	return dst
}

// target is what the traced run drives: a plain evaluation, and the
// routing the decomposition follows.
type target struct {
	eval func(p query.Predicate) (*bitvec.Vector, iostat.Stats, []query.Choice, error)
	// explain returns the plan a planner would follow; nil when queries
	// go straight to an executor.
	explain func(p query.Predicate) (*query.PlanNode, error)
	// leaf picks the evaluator for a leaf's plan node (nil without a
	// planner).
	leaf func(node *query.PlanNode) (leafRunner, error)
	perm []int
}

func (s *system) target() target {
	return target{
		eval: s.eval,
		explain: func(p query.Predicate) (*query.PlanNode, error) {
			plan, err := s.pl.Explain(p)
			if err != nil {
				return nil, err
			}
			return plan.Root, nil
		},
		leaf: func(node *query.PlanNode) (leafRunner, error) {
			run, ok := s.leaves[node.Column+"/"+node.Path]
			if !ok {
				return nil, fmt.Errorf("no decomposed evaluator for path %s on %s", node.Path, node.Column)
			}
			return run, nil
		},
		perm: s.perm,
	}
}

// decompose evaluates p leaf by leaf along the plan, combining with bitvec
// in the planner's order.
func (t *tracer) decompose(tg target, p query.Predicate, node *query.PlanNode) (*bitvec.Vector, error) {
	child := func(i int) *query.PlanNode {
		if node == nil {
			return nil
		}
		return node.Children[i]
	}
	switch p := p.(type) {
	case query.Eq, query.In, query.Range:
		run, err := tg.leaf(node)
		if err != nil {
			return nil, err
		}
		id := t.begin("query.leaf")
		defer t.end(id)
		return run(t, p)
	case query.And:
		return t.combine(tg, p.Preds, child, (*bitvec.Vector).And)
	case query.Or:
		return t.combine(tg, p.Preds, child, (*bitvec.Vector).Or)
	case query.Not:
		rows, err := t.decompose(tg, p.Pred, child(0))
		if err != nil {
			return nil, err
		}
		id := t.begin("bitvec.combine")
		rows.Not()
		t.end(id)
		t.combineOps++
		return rows, nil
	}
	return nil, fmt.Errorf("unknown predicate %T", p)
}

// combine folds the children's row sets left to right with op.
func (t *tracer) combine(tg target, preds []query.Predicate, child func(int) *query.PlanNode, op func(*bitvec.Vector, *bitvec.Vector) *bitvec.Vector) (*bitvec.Vector, error) {
	acc, err := t.decompose(tg, preds[0], child(0))
	if err != nil {
		return nil, err
	}
	for i := 1; i < len(preds); i++ {
		rows, err := t.decompose(tg, preds[i], child(i))
		if err != nil {
			return nil, err
		}
		id := t.begin("bitvec.combine")
		op(acc, rows)
		t.end(id)
		t.combineOps++
	}
	return acc, nil
}

// run evaluates one query decomposed and returns its row set.
func (t *tracer) run(tg target, q int, p query.Predicate) (*bitvec.Vector, error) {
	t.query = q
	root := t.begin("query")
	defer t.end(root)
	var node *query.PlanNode
	if tg.explain != nil {
		id := t.begin("query.plan")
		var err error
		node, err = tg.explain(p)
		t.end(id)
		if err != nil {
			return nil, err
		}
	}
	rows, err := t.decompose(tg, p, node)
	if err != nil || tg.perm == nil {
		return rows, err
	}
	id := t.begin("reorder.mapback")
	rows = reorder.MapToOriginal(rows, tg.perm)
	t.end(id)
	return rows, nil
}

// layerShares are the layers whose self time the traced run reports as a
// share of the decomposed wall time.
var layerShares = []string{
	"query.plan", "core.reduce", "boolmin.compile", "boolmin.kernel", "core.eq", "core.range",
	"simplebitmap.leaf", "bitvec.combine", "reorder.mapback",
}

// replayStats accumulates the traced run's three interleaved variants.
type replayStats struct {
	queries    int
	mismatches int
	decompNS   int64 // decomposed, summed query root spans
	plainNS    int64 // plain evaluation, telemetry off
	obsNS      int64 // plain evaluation, telemetry on
	allocs     uint64
	allocBytes uint64
	choices    int
	misest     int
	excess     int
	gcCPU      float64 // GC share of all CPU time over the replay
}

// runtimeCounters reads the runtime counters the replay reports into a
// slice the caller reuses, so taking a reading allocates nothing.
type runtimeCounters []metrics.Sample

func newRuntimeCounters() runtimeCounters {
	return runtimeCounters{
		{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"},
	}
}

// read returns heap objects and bytes allocated so far, and GC and total
// available CPU seconds.
func (c runtimeCounters) read() (objects, bytes uint64, gcCPU, cpu float64) {
	metrics.Read(c)
	u := func(i int) uint64 {
		if c[i].Value.Kind() != metrics.KindUint64 {
			return 0
		}
		return c[i].Value.Uint64()
	}
	f := func(i int) float64 {
		if c[i].Value.Kind() != metrics.KindFloat64 {
			return 0
		}
		return c[i].Value.Float64()
	}
	return u(0), u(1), f(2), f(3)
}

// replay runs each query three ways — decomposed, plain with telemetry
// off, plain with telemetry on — rotating their order per query so cache
// warmth from the previous variant favours none of them. It stops early
// once budget has passed. Telemetry is left off.
func replay(t *tracer, tg target, qs []query.Predicate, budget time.Duration) (replayStats, error) {
	var rs replayStats
	counters := newRuntimeCounters()
	start := time.Now()
	_, _, gc0, cpu0 := counters.read()
	for i, p := range qs {
		if time.Since(start) > budget {
			break
		}
		var decomposed, plain *bitvec.Vector
		for v := 0; v < 3; v++ {
			switch (i + v) % 3 {
			case 0:
				n0 := len(t.spans)
				rows, err := t.run(tg, i, p)
				if err != nil {
					return rs, fmt.Errorf("decomposed %s: %w", p, err)
				}
				decomposed = rows
				rs.decompNS += t.spans[n0].End - t.spans[n0].Start
			case 1:
				obs.Disable()
				objs0, bytes0, _, _ := counters.read()
				t0 := time.Now()
				rows, _, choices, err := tg.eval(p)
				rs.plainNS += int64(time.Since(t0))
				objs1, bytes1, _, _ := counters.read()
				if err != nil {
					return rs, fmt.Errorf("%s: %w", p, err)
				}
				plain = rows
				rs.allocs += objs1 - objs0
				rs.allocBytes += bytes1 - bytes0
				for _, c := range choices {
					rs.choices++
					if c.Misestimated() {
						rs.misest++
					}
					rs.excess += c.Excess
				}
			case 2:
				obs.Enable()
				t0 := time.Now()
				_, _, _, err := tg.eval(p)
				rs.obsNS += int64(time.Since(t0))
				obs.Disable()
				if err != nil {
					return rs, fmt.Errorf("%s with telemetry: %w", p, err)
				}
			}
		}
		if !decomposed.Equal(plain) {
			rs.mismatches++
			fmt.Fprintf(os.Stderr, "traced decomposition differs from plain evaluation: %s\n", p)
		}
		rs.queries++
	}
	_, _, gc1, cpu1 := counters.read()
	rs.gcCPU = ratio(gc1-gc0, cpu1-cpu0)
	return rs, nil
}

// layerMetrics turns the spans and counts of a replay into the per-layer
// metrics.
func layerMetrics(t *tracer, rs replayStats, m metricSet) {
	self := make(map[string]int64)
	total := make(map[string]int64)
	calls := make(map[string]int)
	for _, s := range t.spans {
		d := s.End - s.Start
		self[s.Name] += d
		total[s.Name] += d
		calls[s.Name]++
		if s.Parent >= 0 {
			self[t.spans[s.Parent].Name] -= d
		}
	}
	q := float64(max(rs.queries, 1))
	wall := float64(max(total["query"], 1))
	var covered int64
	for name, d := range self {
		if name != "query" {
			covered += d
		}
	}
	for _, name := range layerShares {
		m.set(name+".share", float64(self[name])/wall)
	}
	m.set("trace.ms_per_query", float64(total["query"])/q/1e6)
	m.set("trace.sum_ratio", float64(covered)/wall)
	m.set("trace.overhead_ratio", ratio(float64(rs.decompNS), float64(rs.plainNS)))
	m.set("obs.overhead_ratio", ratio(float64(rs.obsNS), float64(rs.plainNS)))
	m.set("query.leaf.ms_per_query", float64(total["query.leaf"])/q/1e6)
	m.set("query.leaf.calls_per_query", float64(calls["query.leaf"])/q)
	m.set("query.plan.misestimate_share", ratio(float64(rs.misest), float64(rs.choices)))
	m.set("query.plan.excess_vectors_per_query", float64(rs.excess)/q)
	m.set("core.reduce.calls_per_query", float64(t.reduceCalls)/q)
	m.set("core.reduce.cubes_per_call", ratio(float64(t.cubes), float64(t.reduceCalls)))
	m.set("core.reduce.repeat_share", ratio(float64(t.reduceRepeats), float64(t.reduceCalls)))
	m.set("boolmin.kernel.vectors_per_call", ratio(float64(t.kernelVectors), float64(t.reduceCalls)))
	m.set("boolmin.kernel.gb_per_s", ratio(float64(t.kernelWords)*8, float64(total["boolmin.kernel"])))
	m.set("bitvec.combine.ms_per_query", float64(total["bitvec.combine"])/q/1e6)
	m.set("bitvec.combine.ops_per_query", float64(t.combineOps)/q)
	m.set("runtime.allocs_per_query", float64(rs.allocs)/q)
	m.set("runtime.alloc_kb_per_query", float64(rs.allocBytes)/q/1024)
	m.set("runtime.gc_cpu_share", rs.gcCPU)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
