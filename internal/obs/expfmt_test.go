package obs

import (
	"math"
	"strings"
	"testing"
)

// TestPrometheusGolden pins the classic exposition byte-for-byte for a
// small registry, so format drift is an explicit decision.
func TestPrometheusGolden(t *testing.T) {
	withTelemetry(t)
	r := NewRegistry()
	r.Counter("g_c_total", "a counter\nwith a newline and a \\ backslash").Add(3)
	r.Gauge("g_g", "a gauge").Set(-2)
	h := r.Histogram("g_h", "a histogram", []float64{0.5, 2})
	h.Observe(0.25)
	h.Observe(1)
	h.Observe(10)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# HELP g_c_total a counter\nwith a newline and a \\ backslash
# TYPE g_c_total counter
g_c_total 3
# HELP g_g a gauge
# TYPE g_g gauge
g_g -2
# HELP g_h a histogram
# TYPE g_h histogram
g_h_bucket{le="0.5"} 1
g_h_bucket{le="2"} 2
g_h_bucket{le="+Inf"} 3
g_h_sum 11.25
g_h_count 3
`
	if got := sb.String(); got != want {
		t.Fatalf("prometheus exposition drifted:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestOpenMetricsGolden pins the OpenMetrics exposition byte-for-byte
// on a registry holding every metric kind plus an exemplar: counter
// families drop the _total suffix (a counter without it gains one on its
// sample), only buckets carry exemplars, and the exposition ends with
// # EOF.
func TestOpenMetricsGolden(t *testing.T) {
	withTelemetry(t)
	r := NewRegistry()
	r.Counter("om_c_total", "a counter\nwith a newline and a \\ backslash").Add(7)
	r.Counter("om_events", "").Add(2)
	r.Gauge("om_g", "a gauge").Set(-2)
	h := r.Histogram("om_h", "a histogram", []float64{0.5, 2})
	h.Observe(0.25)
	h.ObserveSpan(1.5, &Span{ID: 11, TraceID: 9})
	h.Observe(10)
	h.Exemplar(1).UnixNano = 1_700_000_000_250_000_000 // pin the wall-clock stamp

	var sb strings.Builder
	if err := r.WriteOpenMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# HELP om_c a counter\nwith a newline and a \\ backslash
# TYPE om_c counter
om_c_total 7
# TYPE om_events counter
om_events_total 2
# HELP om_g a gauge
# TYPE om_g gauge
om_g -2
# HELP om_h a histogram
# TYPE om_h histogram
om_h_bucket{le="0.5"} 1
om_h_bucket{le="2"} 2 # {trace_id="9",span_id="11"} 1.5 1700000000.250
om_h_bucket{le="+Inf"} 3
om_h_sum 11.75
om_h_count 3
# EOF
`
	if got := sb.String(); got != want {
		t.Fatalf("openmetrics exposition drifted:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestHistogramExemplarRetention(t *testing.T) {
	withTelemetry(t)
	r := NewRegistry()
	h := r.Histogram("ex_h", "", []float64{1})
	if h.Exemplar(0) != nil || h.Exemplar(1) != nil || h.Exemplar(99) != nil {
		t.Fatal("fresh histogram has exemplars")
	}
	h.ObserveSpan(0.5, &Span{ID: 1, TraceID: 1})
	h.ObserveSpan(0.7, &Span{ID: 2, TraceID: 2})
	e := h.Exemplar(0)
	if e == nil || e.SpanID != 2 || e.Value != 0.7 {
		t.Fatalf("bucket keeps last exemplar, got %+v", e)
	}
	// Nil span observes without storing.
	h.ObserveSpan(5, nil)
	if h.Exemplar(1) != nil {
		t.Fatal("nil span stored an exemplar")
	}
	if h.Count() != 3 {
		t.Fatalf("count = %d, want 3", h.Count())
	}
}

func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", name)
		}
	}()
	fn()
}

func TestHistogramBoundsValidation(t *testing.T) {
	r := NewRegistry()
	mustPanic(t, "NaN bound", func() {
		r.Histogram("bad_nan", "", []float64{1, math.NaN()})
	})
	mustPanic(t, "Inf bound", func() {
		r.Histogram("bad_inf", "", []float64{1, math.Inf(1)})
	})
	mustPanic(t, "unsorted bounds", func() {
		r.Histogram("bad_order", "", []float64{2, 1})
	})
	mustPanic(t, "duplicate bounds", func() {
		r.Histogram("bad_dup", "", []float64{1, 1})
	})
	// Re-registration with identical bounds is fine; different bounds
	// panic rather than silently observing into the wrong buckets.
	a := r.Histogram("re_h", "", []float64{1, 2})
	if b := r.Histogram("re_h", "", []float64{1, 2}); b != a {
		t.Fatal("idempotent re-registration returned a new histogram")
	}
	if c := r.Histogram("re_h", "", nil); c != a {
		t.Fatal("nil-bounds re-registration returned a new histogram")
	}
	mustPanic(t, "bounds mismatch", func() {
		r.Histogram("re_h", "", []float64{1, 2, 3})
	})
	mustPanic(t, "kind clash", func() {
		r.Counter("re_h", "")
	})
}
