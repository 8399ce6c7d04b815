// Package drift closes the loop the paper's Section 5 leaves open: it
// watches the live predicate stream, quantifies how far the current
// encoding has decayed from the Theorem 2.2/2.3 optimum for that
// stream, and periodically prices a re-encoding through
// core.PlanReencode and advisor.Advise. The pieces are a Recorder (a
// core.SelectionObserver feeding a Space-Saving top-K sketch plus
// rolling drift score) and a Watcher (a background goroutine that
// snapshots the sketch into a weighted workload, plans, publishes
// gauges and the /debug/drift report, and raises a structured-log
// event when drift crosses a threshold).
package drift

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/iostat"
	"repro/internal/obs"
)

// DefaultSketchCapacity is the Recorder's default top-K size; with
// capacity K the sketch's count error is bounded by observed/K.
const DefaultSketchCapacity = 64

// DefaultWindow is the default rolling-window length (in evaluations)
// of the drift score.
const DefaultWindow = 256

// sample is one evaluation's contribution to the rolling drift score.
type sample struct {
	excess int // vectors read beyond the theoretical minimum
	actual int // vectors read
}

// Recorder profiles one index's selection stream. It implements
// core.SelectionObserver: install it with SetSelectionObserver and
// every Eq/In/NotIn (and parallel/prepared) evaluation feeds it. It is
// safe for concurrent use and never calls back into the index, so it
// runs fine under Synced's lock-free readers.
//
// Two things are maintained per observation: the predicate's
// normalized key is counted in a bounded Space-Saving sketch (with a
// side table translating surviving keys back to value lists, pruned in
// lockstep with sketch evictions), and the evaluation's excess access
// — actual vectors read minus the Theorem 2.2/2.3 theoretical minimum
// for its selection width — enters a rolling window whose ratio
// sum(excess)/sum(actual) is the drift score: 0 means the encoding is
// provably as good as any encoding could be for the recent stream, 1
// means every read was avoidable.
type Recorder[V comparable] struct {
	name   string
	sketch *obs.TopK

	hExcess *obs.Histogram
	gScore  *obs.Gauge

	mu        sync.Mutex
	values    map[string][]V // sketch key -> selected value list
	window    []sample
	next      int
	filled    int
	sumExcess int
	sumActual int
}

// NewRecorder returns a recorder named name (the /debug/drift and
// metric-suffix key). sketchCapacity and window fall back to the
// package defaults when <= 0.
func NewRecorder[V comparable](name string, sketchCapacity, window int) *Recorder[V] {
	if name == "" {
		name = "index"
	}
	if sketchCapacity <= 0 {
		sketchCapacity = DefaultSketchCapacity
	}
	if window <= 0 {
		window = DefaultWindow
	}
	suffix := MetricSuffix(name)
	return &Recorder[V]{
		name:   name,
		sketch: obs.NewTopK(sketchCapacity),
		hExcess: obs.Default().Histogram("ebi_drift_excess_vectors_"+suffix,
			"Per-evaluation excess bitmap-vector reads (actual minus the Theorem 2.2/2.3 theoretical minimum) on index "+name+".",
			[]float64{0, 1, 2, 3, 4, 6, 8, 12, 16}),
		gScore: obs.Default().Gauge("ebi_drift_score_milli_"+suffix,
			"Rolling drift score of index "+name+" in thousandths: sum(excess)/sum(actual vectors read) over the recent evaluation window."),
		values: make(map[string][]V, sketchCapacity),
		window: make([]sample, window),
	}
}

// Name returns the recorder's registration name.
func (r *Recorder[V]) Name() string { return r.name }

// Key renders a selection value list as the normalized predicate key
// used by the sketch: values string-rendered, sorted, comma-joined —
// so "IN (b,a)" and "IN (a,b)" count as one predicate.
func Key[V comparable](values []V) string {
	parts := make([]string, len(values))
	for i, v := range values {
		parts[i] = fmt.Sprint(v)
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

// ObserveSelection implements core.SelectionObserver.
func (r *Recorder[V]) ObserveSelection(values []V, st iostat.Stats, minVectors int) {
	excess := st.VectorsRead - minVectors
	if excess < 0 {
		excess = 0
	}
	r.hExcess.Observe(float64(excess))
	key := Key(values)

	r.mu.Lock()
	if _, ok := r.values[key]; !ok {
		r.values[key] = append([]V(nil), values...)
	}
	if evicted, was := r.sketch.Add(key, 1); was {
		delete(r.values, evicted)
	}
	if r.filled == len(r.window) {
		old := r.window[r.next]
		r.sumExcess -= old.excess
		r.sumActual -= old.actual
	} else {
		r.filled++
	}
	r.window[r.next] = sample{excess: excess, actual: st.VectorsRead}
	r.sumExcess += excess
	r.sumActual += st.VectorsRead
	r.next = (r.next + 1) % len(r.window)
	score := r.scoreLocked()
	r.mu.Unlock()

	r.gScore.Set(int64(score * 1000))
}

func (r *Recorder[V]) scoreLocked() float64 {
	if r.sumActual <= 0 {
		return 0
	}
	return float64(r.sumExcess) / float64(r.sumActual)
}

// Score returns the current rolling drift score in [0,1].
func (r *Recorder[V]) Score() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.scoreLocked()
}

// Observed returns the total number of recorded evaluations (the N in
// the sketch's error bound N/K).
func (r *Recorder[V]) Observed() uint64 { return r.sketch.Observed() }

// SketchCapacity returns the sketch's K.
func (r *Recorder[V]) SketchCapacity() int { return r.sketch.Capacity() }

// TopPredicates returns up to n sketch entries, most frequent first
// (n <= 0 returns all retained).
func (r *Recorder[V]) TopPredicates(n int) []obs.TopKEntry {
	snap := r.sketch.Snapshot()
	if n > 0 && len(snap) > n {
		snap = snap[:n]
	}
	return snap
}

// Workload snapshots the sketch into the weighted predicate workload
// core.PlanReencode consumes: one predicate per retained key with
// count >= minCount, weighted by its estimated frequency. The
// predicate lists are copies; mutating them does not affect the
// recorder.
func (r *Recorder[V]) Workload(minCount uint64) (predicates [][]V, weights []int) {
	snap := r.sketch.Snapshot()
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, e := range snap {
		if minCount > 0 && e.Count < minCount {
			continue
		}
		vs, ok := r.values[e.Key]
		if !ok {
			continue // evicted between snapshot and lock
		}
		predicates = append(predicates, append([]V(nil), vs...))
		weights = append(weights, int(e.Count))
	}
	return predicates, weights
}

// Reset drops the sketch, the side table, and the rolling window.
func (r *Recorder[V]) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sketch.Reset()
	r.values = make(map[string][]V, r.sketch.Capacity())
	for i := range r.window {
		r.window[i] = sample{}
	}
	r.next, r.filled, r.sumExcess, r.sumActual = 0, 0, 0, 0
	r.gScore.Set(0)
}

// MetricSuffix renders a registration name as a metric-name suffix:
// lower-cased with every non-alphanumeric run collapsed to '_'.
func MetricSuffix(name string) string {
	var b strings.Builder
	lastUnderscore := false
	for _, c := range strings.ToLower(name) {
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9':
			b.WriteRune(c)
			lastUnderscore = false
		default:
			if !lastUnderscore {
				b.WriteByte('_')
				lastUnderscore = true
			}
		}
	}
	out := strings.Trim(b.String(), "_")
	if out == "" {
		return "index"
	}
	return out
}
