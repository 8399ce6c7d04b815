package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	name, help string
	v          atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n. It is a no-op while telemetry is disabled.
func (c *Counter) Add(n uint64) {
	if !enabled.Load() {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Name returns the metric name.
func (c *Counter) Name() string { return c.name }

// Gauge is an atomic instantaneous value.
type Gauge struct {
	name, help string
	v          atomic.Int64
}

// Set stores v. It is a no-op while telemetry is disabled.
func (g *Gauge) Set(v int64) {
	if !enabled.Load() {
		return
	}
	g.v.Store(v)
}

// Add adds delta (which may be negative). No-op while disabled.
func (g *Gauge) Add(delta int64) {
	if !enabled.Load() {
		return
	}
	g.v.Add(delta)
}

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Name returns the metric name.
func (g *Gauge) Name() string { return g.name }

// Histogram is a fixed-bucket cumulative histogram. Bounds are inclusive
// upper bounds (Prometheus "le" semantics); observations above the last
// bound land in the implicit +Inf bucket.
//
// Each bucket retains at most one exemplar — the last observation that
// landed there together with the trace and span IDs that produced it —
// so a tail-latency bucket links back to a retained trace tree. The
// storage is bounded at one pointer per bucket by construction.
type Histogram struct {
	name, help string
	bounds     []float64
	counts     []atomic.Uint64 // len(bounds)+1, last is +Inf
	count      atomic.Uint64
	sum        atomic.Uint64              // float64 bits
	exemplars  []atomic.Pointer[Exemplar] // len(bounds)+1, last is +Inf
}

// Exemplar links one histogram bucket to the trace that last fed it.
type Exemplar struct {
	Value    float64 `json:"value"`
	TraceID  uint64  `json:"trace_id"`
	SpanID   uint64  `json:"span_id"`
	UnixNano int64   `json:"unix_nano"`
}

// Observe records one sample. No-op while telemetry is disabled.
func (h *Histogram) Observe(v float64) {
	if !enabled.Load() {
		return
	}
	h.observe(v)
}

// ObserveSpan records one sample and, when sp is a live span, stores an
// exemplar on the sample's bucket linking the bucket to sp's trace.
// Nil-safe in sp and a no-op while telemetry is disabled.
func (h *Histogram) ObserveSpan(v float64, sp *Span) {
	if !enabled.Load() {
		return
	}
	i := h.observe(v)
	if sp != nil {
		h.exemplars[i].Store(&Exemplar{
			Value:    v,
			TraceID:  sp.TraceID,
			SpanID:   sp.ID,
			UnixNano: time.Now().UnixNano(),
		})
	}
}

func (h *Histogram) observe(v float64) int {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return i
		}
	}
}

// Exemplar returns bucket i's retained exemplar (i == len(bounds) is
// the +Inf bucket), or nil if that bucket never stored one.
func (h *Histogram) Exemplar(i int) *Exemplar {
	if i < 0 || i >= len(h.exemplars) {
		return nil
	}
	return h.exemplars[i].Load()
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Name returns the metric name.
func (h *Histogram) Name() string { return h.name }

// LatencyBuckets are the default bounds, in seconds, for query-latency
// histograms: 10µs to 2.5s in a 1-2.5-5 progression.
var LatencyBuckets = []float64{
	1e-5, 2.5e-5, 5e-5,
	1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3,
	1e-2, 2.5e-2, 5e-2,
	0.1, 0.25, 0.5, 1, 2.5,
}

// metric is the registry's view of one instrument.
type metric interface {
	Name() string
}

type entry struct {
	m    metric
	help string
}

// Registry names and exports a set of metrics. The zero value is not
// usable; use NewRegistry or the process-wide Default.
type Registry struct {
	mu      sync.Mutex
	entries map[string]entry
	order   []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]entry)}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry that the EBI stack's
// instrumentation registers into and that Handler exports.
func Default() *Registry { return defaultRegistry }

// register returns the existing metric under name, or installs fresh.
// Registration is idempotent by name; a kind clash panics (it is a
// programming error, like an expvar name collision).
func (r *Registry) register(name, help string, fresh func() metric) metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.entries[name]; ok {
		return e.m
	}
	m := fresh()
	r.entries[name] = entry{m: m, help: help}
	r.order = append(r.order, name)
	return m
}

// Counter returns the counter registered under name, creating it if
// needed.
func (r *Registry) Counter(name, help string) *Counter {
	m := r.register(name, help, func() metric { return &Counter{name: name, help: help} })
	c, ok := m.(*Counter)
	if !ok {
		panic(fmt.Sprintf("obs: metric %q already registered as %T", name, m))
	}
	return c
}

// Gauge returns the gauge registered under name, creating it if needed.
func (r *Registry) Gauge(name, help string) *Gauge {
	m := r.register(name, help, func() metric { return &Gauge{name: name, help: help} })
	g, ok := m.(*Gauge)
	if !ok {
		panic(fmt.Sprintf("obs: metric %q already registered as %T", name, m))
	}
	return g
}

// validateBounds rejects bucket bounds that would silently misbucket:
// NaN (SearchFloat64s gives an arbitrary index), infinities (the +Inf
// bucket is implicit), and anything not strictly ascending (duplicate
// bounds make dead buckets; unsorted bounds break the binary search).
func validateBounds(name string, bounds []float64) {
	for i, b := range bounds {
		if math.IsNaN(b) {
			panic(fmt.Sprintf("obs: histogram %q bound %d is NaN", name, i))
		}
		if math.IsInf(b, 0) {
			panic(fmt.Sprintf("obs: histogram %q bound %d is infinite; the +Inf bucket is implicit", name, i))
		}
		if i > 0 && bounds[i-1] >= b {
			panic(fmt.Sprintf("obs: histogram %q bounds not strictly ascending at %d (%v >= %v)", name, i, bounds[i-1], b))
		}
	}
}

// Histogram returns the histogram registered under name, creating it
// with the given bucket bounds if needed. Bounds must be strictly
// ascending and finite; nil uses LatencyBuckets. Registering an
// existing name again with different non-nil bounds panics — the
// second caller would silently observe into buckets it did not ask
// for.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if bounds != nil {
		validateBounds(name, bounds)
	}
	m := r.register(name, help, func() metric {
		if bounds == nil {
			bounds = LatencyBuckets
		}
		return &Histogram{
			name:      name,
			help:      help,
			bounds:    append([]float64(nil), bounds...),
			counts:    make([]atomic.Uint64, len(bounds)+1),
			exemplars: make([]atomic.Pointer[Exemplar], len(bounds)+1),
		}
	})
	h, ok := m.(*Histogram)
	if !ok {
		panic(fmt.Sprintf("obs: metric %q already registered as %T", name, m))
	}
	if bounds != nil && !equalBounds(h.bounds, bounds) {
		panic(fmt.Sprintf("obs: histogram %q re-registered with different bounds", name))
	}
	return h
}

func equalBounds(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// each calls fn for every registered metric in registration order.
func (r *Registry) each(fn func(m metric, help string)) {
	r.mu.Lock()
	names := append([]string(nil), r.order...)
	entries := make([]entry, len(names))
	for i, n := range names {
		entries[i] = r.entries[n]
	}
	r.mu.Unlock()
	for _, e := range entries {
		fn(e.m, e.help)
	}
}
