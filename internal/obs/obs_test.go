package obs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"regexp"
	"strings"
	"sync"
	"testing"

	"repro/internal/iostat"
)

// withTelemetry enables telemetry for the test and restores the disabled
// default afterwards.
func withTelemetry(t *testing.T) {
	t.Helper()
	Enable()
	t.Cleanup(Disable)
}

func TestCounterDisabledIsNoop(t *testing.T) {
	Disable()
	c := NewRegistry().Counter("test_disabled_total", "")
	c.Add(5)
	c.Inc()
	if got := c.Value(); got != 0 {
		t.Fatalf("disabled counter moved to %d", got)
	}
}

func TestCounterGaugeEnabled(t *testing.T) {
	withTelemetry(t)
	r := NewRegistry()
	c := r.Counter("test_c_total", "help")
	c.Add(3)
	c.Inc()
	if got := c.Value(); got != 4 {
		t.Fatalf("counter = %d, want 4", got)
	}
	g := r.Gauge("test_g", "help")
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}
}

func TestRegistryIdempotentAndKindClash(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("same", "")
	b := r.Counter("same", "")
	if a != b {
		t.Fatal("re-registration returned a different counter")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("kind clash did not panic")
		}
	}()
	r.Gauge("same", "")
}

func TestHistogramBuckets(t *testing.T) {
	withTelemetry(t)
	r := NewRegistry()
	h := r.Histogram("test_h", "help", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 50, 500} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if h.Sum() != 556.5 {
		t.Fatalf("sum = %v, want 556.5", h.Sum())
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	// Cumulative: le=1 -> 2 (0.5 and the inclusive 1), le=10 -> 3,
	// le=100 -> 4, +Inf -> 5.
	for _, want := range []string{
		`test_h_bucket{le="1"} 2`,
		`test_h_bucket{le="10"} 3`,
		`test_h_bucket{le="100"} 4`,
		`test_h_bucket{le="+Inf"} 5`,
		`test_h_sum 556.5`,
		`test_h_count 5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
}

// promLine validates one non-comment exposition line: a metric name with
// optional labels, a space, and a number.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [-+0-9.eE]+(Inf)?$`)

func TestPrometheusFormatValid(t *testing.T) {
	withTelemetry(t)
	r := NewRegistry()
	r.Counter("fmt_c_total", "a counter").Add(2)
	r.Gauge("fmt_g", "a gauge").Set(-3)
	r.Histogram("fmt_h_seconds", "a histogram", nil).Observe(0.02)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(sb.String()), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !promLine.MatchString(line) {
			t.Errorf("invalid exposition line %q", line)
		}
	}
}

func TestSnapshotMarshals(t *testing.T) {
	withTelemetry(t)
	r := NewRegistry()
	r.Counter("snap_c_total", "").Add(1)
	r.Histogram("snap_h", "", []float64{1}).Observe(2)
	data, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "snap_c_total") {
		t.Fatalf("snapshot JSON missing counter: %s", data)
	}
}

func TestSpanNilSafeWhenDisabled(t *testing.T) {
	Disable()
	ctx, sp := StartSpan(context.Background(), "test")
	if sp != nil {
		t.Fatal("disabled StartSpan returned a live span")
	}
	if got := SpanFromContext(ctx); got != nil {
		t.Fatal("disabled StartSpan attached a span to the context")
	}
	// All of these must be safe no-ops on the nil span.
	sp.SetAttr("k", 1)
	sp.SetStats(iostat.Stats{VectorsRead: 1})
	sp.SetError(errors.New("boom"))
	sp.End()
}

func TestSpanRecordsAndContextPropagates(t *testing.T) {
	withTelemetry(t)
	ctx, sp := StartSpan(context.Background(), "test.span")
	if SpanFromContext(ctx) != sp {
		t.Fatal("span not retrievable from context")
	}
	st := iostat.Stats{VectorsRead: 4, BoolOps: 3}
	sp.SetStats(st)
	sp.SetAttr("plan", "ebi")
	sp.End()
	recent := DefaultTracer().Recent(1)
	if len(recent) == 0 || recent[0] != sp {
		t.Fatal("finished span not in the default tracer ring")
	}
	if recent[0].Stats != st {
		t.Fatalf("span stats = %+v, want %+v", recent[0].Stats, st)
	}
	if recent[0].Attrs["plan"] != "ebi" {
		t.Fatalf("span attrs = %v", recent[0].Attrs)
	}
	if recent[0].DurationNS < 0 {
		t.Fatal("negative duration")
	}
}

func TestTracerRingBoundAndOrder(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		tr.add(&Span{Name: fmt.Sprintf("s%d", i)})
	}
	recent := tr.Recent(0)
	if len(recent) != 4 {
		t.Fatalf("ring retained %d spans, want 4", len(recent))
	}
	for i, sp := range recent {
		if want := fmt.Sprintf("s%d", 9-i); sp.Name != want {
			t.Fatalf("recent[%d] = %s, want %s", i, sp.Name, want)
		}
	}
	if tr.Total() != 10 {
		t.Fatalf("total = %d, want 10", tr.Total())
	}
}

// TestConcurrentInstruments exercises every mutator from many goroutines
// so `go test -race ./internal/obs` proves the subsystem race-free.
func TestConcurrentInstruments(t *testing.T) {
	withTelemetry(t)
	r := NewRegistry()
	c := r.Counter("conc_c_total", "")
	g := r.Gauge("conc_g", "")
	h := r.Histogram("conc_h", "", []float64{1, 2, 3})
	tr := NewTracer(8)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i % 5))
				sp := &Span{Name: "conc", tracer: tr}
				sp.End()
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				_ = c.Value()
				_ = r.Snapshot()
				_ = tr.Recent(4)
				var sb strings.Builder
				_ = r.WritePrometheus(&sb)
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter = %d, want 8000", c.Value())
	}
	if h.Count() != 8000 {
		t.Fatalf("histogram count = %d, want 8000", h.Count())
	}
}
