package obs

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// newTestScraper returns a scraper over its own registry with a huge
// interval, so only explicit ScrapeOnce calls produce samples.
func newTestScraper(t *testing.T, cfg TimeSeriesConfig) (*Scraper, *Registry) {
	t.Helper()
	reg := NewRegistry()
	cfg.Registry = reg
	if cfg.Interval == 0 {
		cfg.Interval = time.Hour
	}
	return NewScraper(cfg), reg
}

func TestScrapeCountersGaugesHistograms(t *testing.T) {
	withTelemetry(t)
	s, reg := newTestScraper(t, TimeSeriesConfig{})
	c := reg.Counter("ts_c_total", "")
	g := reg.Gauge("ts_g", "")
	h := reg.Histogram("ts_h_seconds", "", nil)

	c.Add(5)
	g.Set(7)
	h.Observe(0.0009) // below the 1e-3 bound
	h.Observe(0.2)    // in the 0.25 bucket
	smp := s.ScrapeOnce()

	if v := smp.Values["ts_c_total"]; v != 5 {
		t.Errorf("first counter scrape = %v, want the running total 5", v)
	}
	if v := smp.Values["ts_g"]; v != 7 {
		t.Errorf("gauge = %v, want 7", v)
	}
	if v := smp.Values["ts_h_seconds_count"]; v != 2 {
		t.Errorf("histogram count delta = %v, want 2", v)
	}
	if v := smp.Values["ts_h_seconds_sum"]; math.Abs(v-0.2009) > 1e-9 {
		t.Errorf("histogram sum delta = %v, want 0.2009", v)
	}
	// Two samples: p50 is the lower one's bucket bound, p99 the upper's.
	if v := smp.Values["ts_h_seconds_p50"]; v != 1e-3 {
		t.Errorf("p50 = %v, want bucket bound 0.001", v)
	}
	if v := smp.Values["ts_h_seconds_p99"]; v != 0.25 {
		t.Errorf("p99 = %v, want bucket bound 0.25", v)
	}

	// Second scrape: counters and histogram series are deltas.
	c.Add(3)
	smp = s.ScrapeOnce()
	if v := smp.Values["ts_c_total"]; v != 3 {
		t.Errorf("counter delta = %v, want 3", v)
	}
	if v := smp.Values["ts_h_seconds_count"]; v != 0 {
		t.Errorf("idle histogram count delta = %v, want 0", v)
	}
	if v := smp.Values["ts_h_seconds_p99"]; v != 0 {
		t.Errorf("idle-interval p99 = %v, want 0", v)
	}
}

func TestRingWrapAround(t *testing.T) {
	withTelemetry(t)
	s, reg := newTestScraper(t, TimeSeriesConfig{Capacity: 4})
	c := reg.Counter("ts_wrap_total", "")
	for i := 0; i < 10; i++ {
		c.Inc()
		s.ScrapeOnce()
	}
	w := s.Window(0, 0)
	if w.Samples != 4 {
		t.Fatalf("window holds %d samples after wrap, want capacity 4", w.Samples)
	}
	for i := 1; i < len(w.UnixMilli); i++ {
		if w.UnixMilli[i] < w.UnixMilli[i-1] {
			t.Fatalf("timestamps not chronological after wrap: %v", w.UnixMilli)
		}
	}
	// Every retained sample saw exactly one increment.
	for i, v := range w.Series["ts_wrap_total"] {
		if v != 1 {
			t.Fatalf("sample %d counter delta = %v, want 1", i, v)
		}
	}
}

func TestSLOBurnGauges(t *testing.T) {
	withTelemetry(t)
	s, reg := newTestScraper(t, TimeSeriesConfig{
		LatencySeries: "ts_slo_seconds",
	})
	h := reg.Histogram("ts_slo_seconds", "", nil)

	for i := 0; i < 9; i++ {
		h.Observe(0.2) // over the 100ms objective
	}
	h.Observe(0.001)
	smp := s.ScrapeOnce()

	if v := smp.Values["ts_slo_seconds_over_slo"]; v != 9 {
		t.Fatalf("over-SLO count = %v, want 9", v)
	}
	// Burn = (9/10)/0.01 = 90, published in milli.
	if v := s.gLatencyBurn.Value(); v != 90000 {
		t.Errorf("latency burn = %d milli, want 90000", v)
	}
	// A quiet scrape leaves the rolling window still burning.
	s.ScrapeOnce()
	if v := s.gLatencyBurn.Value(); v != 90000 {
		t.Errorf("latency burn after quiet scrape = %d, want the window to persist at 90000", v)
	}
}

func TestOnSampleSubscriber(t *testing.T) {
	withTelemetry(t)
	s, _ := newTestScraper(t, TimeSeriesConfig{})
	var got []Sample
	s.OnSample(func(smp Sample) { got = append(got, smp) })
	s.ScrapeOnce()
	s.ScrapeOnce()
	if len(got) != 2 {
		t.Fatalf("subscriber saw %d samples, want 2", len(got))
	}
}

func TestConcurrentScrapeAndWrites(t *testing.T) {
	withTelemetry(t)
	s, reg := newTestScraper(t, TimeSeriesConfig{Capacity: 8})
	c := reg.Counter("ts_race_total", "")
	g := reg.Gauge("ts_race_g", "")
	h := reg.Histogram("ts_race_seconds", "", nil)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				c.Inc()
				g.Set(int64(seed*1000 + i))
				h.Observe(float64(i%100) / 1000)
			}
		}(w)
	}
	total := 0.0
	for i := 0; i < 200; i++ {
		smp := s.ScrapeOnce()
		total += smp.Values["ts_race_total"]
		s.Window(time.Hour, 0)
	}
	close(stop)
	wg.Wait()
	final := s.ScrapeOnce()
	total += final.Values["ts_race_total"]
	if uint64(total) != c.Value() {
		t.Fatalf("summed counter deltas %v != final counter %d", total, c.Value())
	}
}

func TestWindowStep(t *testing.T) {
	withTelemetry(t)
	s, _ := newTestScraper(t, TimeSeriesConfig{Interval: time.Second, Capacity: 16})
	for i := 0; i < 9; i++ {
		s.ScrapeOnce()
	}
	w := s.Window(0, 3*time.Second)
	if w.StepSeconds != 3 {
		t.Fatalf("step = %v, want 3s", w.StepSeconds)
	}
	if w.Samples != 3 {
		t.Fatalf("stride-3 window over 9 samples = %d samples, want 3", w.Samples)
	}
	full := s.Window(0, 0)
	if full.Samples != 9 {
		t.Fatalf("full window = %d samples, want 9", full.Samples)
	}
	// The newest sample is always included.
	if w.UnixMilli[len(w.UnixMilli)-1] != full.UnixMilli[len(full.UnixMilli)-1] {
		t.Fatal("strided window dropped the newest sample")
	}
}

// TestTimeseriesEndpoint is the golden shape test for /debug/timeseries,
// matching the other endpoint goldens: field names here are the API.
func TestTimeseriesEndpoint(t *testing.T) {
	withTelemetry(t)
	s, reg := newTestScraper(t, TimeSeriesConfig{Interval: 10 * time.Millisecond})
	reg.Counter("ts_ep_total", "").Add(2)
	s.Start()
	t.Cleanup(s.Stop)
	s.ScrapeOnce()

	srv := httptest.NewServer(Handler())
	defer srv.Close()

	code, body := get(t, srv, "/debug/timeseries?window=1h&step=1s")
	if code != http.StatusOK {
		t.Fatalf("/debug/timeseries status %d: %s", code, body)
	}
	var w struct {
		IntervalSeconds  *float64             `json:"interval_seconds"`
		StepSeconds      *float64             `json:"step_seconds"`
		WindowSeconds    *float64             `json:"window_seconds"`
		CPUTimeSupported *bool                `json:"cpu_time_supported"`
		Samples          *int                 `json:"samples"`
		UnixMilli        []int64              `json:"unix_ms"`
		Series           map[string][]float64 `json:"series"`
	}
	if err := json.Unmarshal([]byte(body), &w); err != nil {
		t.Fatalf("/debug/timeseries not JSON: %v\n%s", err, body)
	}
	if w.IntervalSeconds == nil || w.StepSeconds == nil || w.WindowSeconds == nil ||
		w.CPUTimeSupported == nil || w.Samples == nil {
		t.Fatalf("/debug/timeseries missing pinned fields: %s", body)
	}
	if *w.Samples < 1 || len(w.UnixMilli) != *w.Samples {
		t.Fatalf("samples=%d but %d timestamps", *w.Samples, len(w.UnixMilli))
	}
	col, ok := w.Series["ts_ep_total"]
	if !ok || len(col) != *w.Samples {
		t.Fatalf("series ts_ep_total missing or misaligned: %s", body)
	}
	if *w.CPUTimeSupported != CPUTimeSupported {
		t.Fatalf("cpu_time_supported = %v, want %v", *w.CPUTimeSupported, CPUTimeSupported)
	}

	// Parameter validation: malformed, non-positive, or sub-interval
	// steps are a 400, not a silent default.
	for _, q := range []string{
		"?window=zap", "?window=-5s", "?window=0s",
		"?step=zap", "?step=-1s", "?step=0s", "?step=1ms",
	} {
		if code, _ := get(t, srv, "/debug/timeseries"+q); code != http.StatusBadRequest {
			t.Errorf("/debug/timeseries%s status %d, want 400", q, code)
		}
	}
}

// ?series= is a name-prefix filter: matching series survive, everything
// else is dropped, and a prefix matching nothing is a 200 with an empty
// series map — absence of data is an answer, not an error.
func TestTimeseriesEndpointSeriesFilter(t *testing.T) {
	withTelemetry(t)
	s, reg := newTestScraper(t, TimeSeriesConfig{Interval: 10 * time.Millisecond})
	reg.Counter("ts_filter_a_total", "").Add(1)
	reg.Counter("ts_filter_b_total", "").Add(2)
	reg.Counter("other_total", "").Add(3)
	s.Start()
	t.Cleanup(s.Stop)
	s.ScrapeOnce()

	srv := httptest.NewServer(Handler())
	defer srv.Close()

	var w struct {
		Samples *int                 `json:"samples"`
		Series  map[string][]float64 `json:"series"`
	}
	code, body := get(t, srv, "/debug/timeseries?series=ts_filter_")
	if code != http.StatusOK {
		t.Fatalf("filtered status %d: %s", code, body)
	}
	if err := json.Unmarshal([]byte(body), &w); err != nil {
		t.Fatalf("filtered response not JSON: %v\n%s", err, body)
	}
	if _, ok := w.Series["ts_filter_a_total"]; !ok {
		t.Fatalf("prefix match ts_filter_a_total dropped: %s", body)
	}
	if _, ok := w.Series["ts_filter_b_total"]; !ok {
		t.Fatalf("prefix match ts_filter_b_total dropped: %s", body)
	}
	if _, ok := w.Series["other_total"]; ok {
		t.Fatalf("non-matching series survived the filter: %s", body)
	}

	code, body = get(t, srv, "/debug/timeseries?series=no_such_prefix_")
	if code != http.StatusOK {
		t.Fatalf("empty-match status %d, want 200: %s", code, body)
	}
	w.Series = nil
	if err := json.Unmarshal([]byte(body), &w); err != nil {
		t.Fatalf("empty-match response not JSON: %v\n%s", err, body)
	}
	if len(w.Series) != 0 {
		t.Fatalf("empty match returned %d series, want none: %s", len(w.Series), body)
	}
	if w.Samples == nil || *w.Samples < 1 {
		t.Fatalf("empty match must keep the window envelope: %s", body)
	}
}

func TestIndexListsEveryRoute(t *testing.T) {
	called := false
	RegisterRoute("/debug/route-test", "a dynamically registered route", http.HandlerFunc(
		func(w http.ResponseWriter, _ *http.Request) { called = true; w.WriteHeader(204) }))
	t.Cleanup(func() { UnregisterRoute("/debug/route-test") })

	srv := httptest.NewServer(Handler())
	defer srv.Close()

	code, body := get(t, srv, "/")
	if code != http.StatusOK {
		t.Fatalf("/ status %d", code)
	}
	for _, r := range Routes() {
		if !strings.Contains(body, r.Pattern) {
			t.Errorf("index page missing route %s", r.Pattern)
		}
		if r.Help == "" {
			t.Errorf("route %s has no help line for the index", r.Pattern)
		}
	}
	if code, _ := get(t, srv, "/debug/route-test"); code != 204 || !called {
		t.Fatalf("registered route not served (status %d, called %v)", code, called)
	}

	// Unregistering removes it from both the mux and the index.
	UnregisterRoute("/debug/route-test")
	if code, _ := get(t, srv, "/debug/route-test"); code != http.StatusNotFound {
		t.Fatalf("unregistered route still served: %d", code)
	}
	if _, body := get(t, srv, "/"); strings.Contains(body, "/debug/route-test") {
		t.Fatal("index still lists the unregistered route")
	}
}

func TestWriteJSONEncodeError(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, math.Inf(1)) // +Inf is not representable in JSON
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("encode failure status %d, want 500", rec.Code)
	}
	rec = httptest.NewRecorder()
	writeJSON(rec, map[string]int{"ok": 1})
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "\"ok\"") {
		t.Fatalf("writeJSON happy path = %d %q", rec.Code, rec.Body.String())
	}
}

func TestScraperStartStop(t *testing.T) {
	withTelemetry(t)
	s, reg := newTestScraper(t, TimeSeriesConfig{Interval: time.Millisecond})
	reg.Counter("ts_loop_total", "").Inc()
	s.Start()
	s.Start() // idempotent
	deadline := time.Now().Add(2 * time.Second)
	for s.Window(0, 0).Samples == 0 {
		if time.Now().After(deadline) {
			t.Fatal("background loop produced no samples")
		}
		time.Sleep(time.Millisecond)
	}
	s.Stop()
	s.Stop() // idempotent
	n := s.Window(0, 0).Samples
	time.Sleep(10 * time.Millisecond)
	if got := s.Window(0, 0).Samples; got != n {
		t.Fatalf("scraper still sampling after Stop: %d -> %d", n, got)
	}
}
