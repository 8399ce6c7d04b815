package obs

import (
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"
)

// The embedded time-series ring: a background Scraper snapshots every
// registry metric at a fixed interval into a bounded circular buffer, so
// the telemetry endpoints gain history — /debug/timeseries serves the
// trailing window, the flight recorder dumps it into incident bundles,
// and the rolling-window SLO latency burn-rate gauge is derived from
// it. The metric hot paths are untouched: the scraper only *reads* the
// atomics, so mutators stay at one atomic load while telemetry is
// disabled and one load plus one add while enabled.
//
// Per scrape, counters contribute their delta since the previous scrape
// (the first scrape reports the running total), gauges their current
// value, and histograms four derived series: <name>_count and <name>_sum
// deltas plus <name>_p50/_p90/_p99 percentile estimates over the
// interval's bucket deltas (0 when the interval saw no observations).

// Sample is one scrape: a timestamp plus every series' value at that
// instant. The Values map is owned by the ring; subscribers must not
// mutate it.
type Sample struct {
	UnixMilli int64              `json:"unix_ms"`
	Values    map[string]float64 `json:"values"`
}

// TimeSeriesConfig tunes a Scraper. The zero value is usable: every
// field has a default.
type TimeSeriesConfig struct {
	// Interval between scrapes (default 1s).
	Interval time.Duration
	// Capacity is the number of samples retained (default 600 — ten
	// minutes at the default interval).
	Capacity int
	// Registry to scrape (default Default()).
	Registry *Registry

	// LatencySeries names the latency histogram the ebi_slo_latency
	// burn gauge is computed from (default "ebi_query_seconds").
	LatencySeries string
}

// The SLO burn gauge's fixed parameters. The latency burn rate is the
// fraction of LatencySeries observations above latencyObjective (rounded
// up to the histogram's nearest bucket bound), relative to latencyBudget:
// 1.0 means the window is consuming its error budget exactly as fast as
// it accrues. It rolls over the trailing burnWindow samples (one minute
// at the default interval).
const (
	latencyObjective = 100 * time.Millisecond
	latencyBudget    = 0.01
	burnWindow       = 60
)

func (cfg TimeSeriesConfig) withDefaults() TimeSeriesConfig {
	if cfg.Interval <= 0 {
		cfg.Interval = time.Second
	}
	if cfg.Capacity <= 0 {
		cfg.Capacity = 600
	}
	if cfg.Registry == nil {
		cfg.Registry = Default()
	}
	if cfg.LatencySeries == "" {
		cfg.LatencySeries = "ebi_query_seconds"
	}
	return cfg
}

// overSLOSuffix marks the derived series counting the latency
// histogram's per-interval observations above the SLO objective.
const overSLOSuffix = "_over_slo"

// Scraper owns the time-series ring. Start launches the background
// scrape loop and registers the /debug/timeseries route; Stop halts the
// loop, waits for it, and unregisters the route. All methods are safe
// for concurrent use.
type Scraper struct {
	cfg          TimeSeriesConfig
	gLatencyBurn *Gauge
	loop         Loop

	mu          sync.Mutex
	ring        *Ring[Sample]
	prevCounter map[string]uint64
	prevHist    map[string]histScrape
	subs        []func(Sample)
}

// histScrape is one histogram as the previous scrape read it: the
// per-bucket counts, sum and count its next interval's deltas start from.
type histScrape struct {
	buckets []uint64
	sum     float64
	count   uint64
}

// NewScraper returns a scraper over cfg.Registry. It is inert until
// Start (or a manual ScrapeOnce).
func NewScraper(cfg TimeSeriesConfig) *Scraper {
	cfg = cfg.withDefaults()
	return &Scraper{
		cfg:  cfg,
		ring: NewRing[Sample](cfg.Capacity),
		gLatencyBurn: cfg.Registry.Gauge("ebi_slo_latency_burn_milli",
			"Rolling-window SLO burn rate x1000 for query latency: the fraction of "+
				cfg.LatencySeries+" observations above the objective, relative to the error budget."),
		prevCounter: make(map[string]uint64),
		prevHist:    make(map[string]histScrape),
	}
}

// OnSample installs a subscriber called after every scrape with the new
// sample (the flight recorder's trigger hook). Subscribers run outside
// the ring lock, on the scrape goroutine; they may call back into the
// scraper but must not mutate the sample.
func (s *Scraper) OnSample(fn func(Sample)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.subs = append(s.subs, fn)
}

// Start launches the background scrape loop and registers the
// /debug/timeseries route. Calling Start on a running scraper is a
// no-op.
func (s *Scraper) Start() {
	if s.loop.Start(s.cfg.Interval, func() { s.ScrapeOnce() }) {
		RegisterRoute("/debug/timeseries", "windowed metric history from the in-process ring (?window=30s&step=5s)",
			s.handler())
	}
}

// Stop halts the background loop, waits for it, and unregisters the
// /debug/timeseries route. Safe to call on a stopped scraper.
func (s *Scraper) Stop() {
	if s.loop.Stop() {
		UnregisterRoute("/debug/timeseries")
	}
}

// ScrapeOnce takes one sample synchronously: every registry metric is
// read, deltas are computed against the previous scrape, the sample
// enters the ring, the ebi_slo_latency_burn_milli gauge is refreshed
// from the trailing window, and subscribers run. The background loop
// calls it on every tick; tests and demos may drive it directly.
func (s *Scraper) ScrapeOnce() Sample {
	now := time.Now()
	vals := make(map[string]float64)

	s.mu.Lock()
	s.cfg.Registry.each(func(m metric, _ string) {
		switch m := m.(type) {
		case *Counter:
			cur := m.Value()
			prev := s.prevCounter[m.name]
			s.prevCounter[m.name] = cur
			if cur >= prev {
				vals[m.name] = float64(cur - prev)
			}
		case *Gauge:
			vals[m.name] = float64(m.Value())
		case *Histogram:
			s.scrapeHistogram(m, vals)
		}
	})
	smp := Sample{UnixMilli: now.UnixMilli(), Values: vals}
	s.ring.Push(smp)
	latBurn := s.latencyBurnLocked()
	vals["ebi_slo_latency_burn_milli"] = float64(latBurn)
	subs := append([]func(Sample){}, s.subs...)
	s.mu.Unlock()

	s.gLatencyBurn.Set(latBurn)
	for _, fn := range subs {
		fn(smp)
	}
	return smp
}

// scrapeHistogram folds one histogram into the sample: count and sum
// deltas, interval percentiles, and — for the SLO latency histogram —
// the count of observations above the objective.
func (s *Scraper) scrapeHistogram(h *Histogram, vals map[string]float64) {
	prev := s.prevHist[h.name]
	cur := histScrape{buckets: make([]uint64, len(h.counts))}
	deltas := make([]uint64, len(h.counts))
	var total uint64
	for i := range h.counts {
		c := h.counts[i].Load()
		cur.buckets[i], deltas[i] = c, c
		if i < len(prev.buckets) && prev.buckets[i] <= c {
			deltas[i] = c - prev.buckets[i]
		}
		total += deltas[i]
	}
	cur.sum, cur.count = h.Sum(), h.Count()
	s.prevHist[h.name] = cur
	vals[h.name+"_count"] = float64(cur.count - prev.count)
	vals[h.name+"_sum"] = cur.sum - prev.sum

	vals[h.name+"_p50"] = bucketPercentile(h.bounds, deltas, total, 0.50)
	vals[h.name+"_p90"] = bucketPercentile(h.bounds, deltas, total, 0.90)
	vals[h.name+"_p99"] = bucketPercentile(h.bounds, deltas, total, 0.99)

	if h.name == s.cfg.LatencySeries {
		over := total
		obj := latencyObjective.Seconds()
		for i, b := range h.bounds {
			over -= deltas[i]
			if b >= obj {
				break
			}
		}
		vals[h.name+overSLOSuffix] = float64(over)
	}
}

// latencyBurnLocked computes the rolling-window SLO latency burn rate
// from the ring (including the just-pushed sample). Caller holds s.mu.
func (s *Scraper) latencyBurnLocked() int64 {
	var over, count float64
	for _, smp := range s.ring.Recent(burnWindow) {
		over += smp.Values[s.cfg.LatencySeries+overSLOSuffix]
		count += smp.Values[s.cfg.LatencySeries+"_count"]
	}
	if count == 0 {
		return 0
	}
	return int64((over / count) / latencyBudget * 1000)
}

// TimeSeriesWindow is the /debug/timeseries payload: aligned timestamp
// and per-series value arrays over the requested trailing window,
// subsampled to the requested step. Series absent at a timestamp (a
// metric registered mid-window) read 0.
type TimeSeriesWindow struct {
	IntervalSeconds  float64              `json:"interval_seconds"`
	StepSeconds      float64              `json:"step_seconds"`
	WindowSeconds    float64              `json:"window_seconds"`
	CPUTimeSupported bool                 `json:"cpu_time_supported"`
	Samples          int                  `json:"samples"`
	UnixMilli        []int64              `json:"unix_ms"`
	Series           map[string][]float64 `json:"series"`
}

// Window renders the trailing window of the ring. window <= 0 returns
// everything retained; step <= interval returns every sample, larger
// steps subsample (newest sample always included). The result is a
// deep copy, safe to hold after further scrapes.
func (s *Scraper) Window(window, step time.Duration) TimeSeriesWindow {
	return s.WindowSeries(window, step, "")
}

// WindowSeries is Window restricted to series whose name starts with
// prefix; the empty prefix keeps everything. A prefix matching nothing
// yields an empty Series map, not an error — absence of data is an
// answer.
func (s *Scraper) WindowSeries(window, step time.Duration, prefix string) TimeSeriesWindow {
	if window <= 0 {
		window = time.Duration(s.cfg.Capacity) * s.cfg.Interval
	}
	stride := 1
	if step > s.cfg.Interval {
		stride = int(step / s.cfg.Interval)
	}
	out := TimeSeriesWindow{
		IntervalSeconds:  s.cfg.Interval.Seconds(),
		StepSeconds:      (s.cfg.Interval * time.Duration(stride)).Seconds(),
		WindowSeconds:    window.Seconds(),
		CPUTimeSupported: CPUTimeSupported,
		Series:           make(map[string][]float64),
	}
	cutoff := time.Now().Add(-window).UnixMilli()

	s.mu.Lock()
	recent := s.ring.Recent(0)
	s.mu.Unlock()
	// Newest-first with the stride, then reverse, so the most recent
	// sample is always present regardless of alignment.
	var picked []Sample
	for i := 0; i < len(recent) && recent[i].UnixMilli >= cutoff; i += stride {
		picked = append(picked, recent[i])
	}

	n := len(picked)
	out.Samples = n
	out.UnixMilli = make([]int64, n)
	for i, smp := range picked {
		j := n - 1 - i // reverse into chronological order
		out.UnixMilli[j] = smp.UnixMilli
		for k, v := range smp.Values {
			if prefix != "" && !strings.HasPrefix(k, prefix) {
				continue
			}
			col, ok := out.Series[k]
			if !ok {
				col = make([]float64, n)
				out.Series[k] = col
			}
			col[j] = v
		}
	}
	return out
}

// handler serves /debug/timeseries: ?window= and ?step= are
// time.ParseDuration strings; malformed or non-positive values, or a
// step below the scrape interval, are a 400. ?series= filters to series
// whose name starts with the given prefix; a prefix matching nothing is
// a 200 with an empty series map, not an error.
func (s *Scraper) handler() http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var window, step time.Duration
		if q := r.URL.Query().Get("window"); q != "" {
			d, err := time.ParseDuration(q)
			if err != nil || d <= 0 {
				http.Error(w, fmt.Sprintf("timeseries: bad window %q", q), http.StatusBadRequest)
				return
			}
			window = d
		}
		if q := r.URL.Query().Get("step"); q != "" {
			d, err := time.ParseDuration(q)
			if err != nil || d <= 0 {
				http.Error(w, fmt.Sprintf("timeseries: bad step %q", q), http.StatusBadRequest)
				return
			}
			if d < s.cfg.Interval {
				http.Error(w, fmt.Sprintf("timeseries: step %s below the %s scrape interval", d, s.cfg.Interval), http.StatusBadRequest)
				return
			}
			step = d
		}
		writeJSON(w, s.WindowSeries(window, step, r.URL.Query().Get("series")))
	}
}
