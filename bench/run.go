package main

import (
	"cmp"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/bitvec"
	"repro/internal/obs"
	"repro/internal/query"
)

// readWorkload is a closed loop with one client over a planner.
type readWorkload struct {
	rows  int
	setup func(seed int64, rows int) (*system, error)
	// queries returns the predicates checked in full after the run (nil
	// for none) and the seeded query stream.
	queries func(seed int64, cfg starConfig) ([]query.Predicate, func() query.Predicate)
	// checkEvery samples every n-th measured answer for the scan check.
	checkEvery int
	// setups is how many timed set-ups an untraced run makes.
	setups int
}

var readWorkloads = map[string]readWorkload{
	"dashboard": {
		rows: 1_000_000, setup: setupDashboard, setups: 5,
		queries: func(seed int64, cfg starConfig) ([]query.Predicate, func() query.Predicate) {
			return dashboardQueries(rng(seed, 1), cfg)
		},
	},
	"adhoc": {
		rows: 1_000_000, setup: setupAdhoc, checkEvery: 25, setups: 5,
		queries: func(seed int64, cfg starConfig) ([]query.Predicate, func() query.Predicate) {
			return nil, adhocQueries(rng(seed, 1), cfg)
		},
	},
	"wah-sorted": {
		rows: 1_000_000, setup: setupWAHSorted, checkEvery: 100, setups: 3,
		queries: func(seed int64, cfg starConfig) ([]query.Predicate, func() query.Predicate) {
			return nil, wahQueries(rng(seed, 1), cfg)
		},
	},
}

// timedSetups runs setup n times from a collected heap and returns the
// last system and the median set-up time.
func timedSetups[S any](n int, setup func() (S, error)) (S, float64, error) {
	var s S
	times := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		var zero S
		s = zero
		runtime.GC()
		t0 := time.Now()
		var err error
		if s, err = setup(); err != nil {
			return s, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return s, median(times), nil
}

func runRead(cfg runConfig, wl readWorkload) (result, *report, error) {
	// One client and one scheduler thread: the collector runs on the
	// measured thread, and the process leaves the core's second hardware
	// thread idle (see probe.go). Set-up and queries run sequentially
	// either way.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))

	rows := cfg.Rows
	if rows == 0 {
		rows = wl.rows
	}
	setups := cmp.Or(cfg.Setups, wl.setups)
	if cfg.Trace {
		setups = 1
	}
	s, setupSecs, err := timedSetups(setups, func() (*system, error) { return wl.setup(cfg.Seed, rows) })
	if err != nil {
		return result{}, nil, fmt.Errorf("set-up: %w", err)
	}
	checks, next := wl.queries(cfg.Seed, starOf(rows))
	rep := &report{}
	rep.add("workload %s seed %d: %d fact rows", cfg.Workload, cfg.Seed, rows)
	if cfg.Trace {
		res, err := traced(cfg, s.target(), next, rep)
		return res, rep, err
	}

	// A loop ends at the query cap when one is set, else at its deadline.
	over := func(n, limit int, deadline time.Time) bool {
		if cfg.MaxQueries > 0 {
			return n >= limit
		}
		return !time.Now().Before(deadline)
	}
	window := time.Duration(cfg.Seconds * float64(time.Second))

	// Untimed warm-up: 5% of the window (or of the query cap).
	warm := time.Now().Add(window / 20)
	for n := 0; !over(n, cfg.MaxQueries/20, warm); n++ {
		if _, _, _, err := s.eval(next()); err != nil {
			return result{}, nil, fmt.Errorf("warm-up: %w", err)
		}
	}

	type sampled struct {
		p    query.Predicate
		rows *bitvec.Vector
	}
	var (
		lat     []float64 // per-query latency, ms
		vectors int
		failed  int
		samples []sampled
	)
	probes := probeLog{probe()}
	start := time.Now()
	for n := 0; !over(n, cfg.MaxQueries, start.Add(window)); n++ {
		p := next()
		t0 := time.Now()
		rows, st, _, err := s.eval(p)
		lat = append(lat, float64(time.Since(t0))/1e6)
		probes = append(probes, probe())
		if err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "%s: %v\n", p, err)
			continue
		}
		vectors += st.VectorsRead
		if wl.checkEvery > 0 && n%wl.checkEvery == 0 {
			samples = append(samples, sampled{p, rows})
		}
	}
	elapsed := time.Since(start).Seconds()

	// Correctness gate, outside the timed region.
	for _, c := range samples {
		if err := s.check(c.p, c.rows); err != nil {
			failed++
			fmt.Fprintln(os.Stderr, "mismatch:", err)
		}
	}
	for _, p := range checks {
		rows, _, _, err := s.eval(p)
		if err == nil {
			err = s.check(p, rows)
		}
		if err != nil {
			failed++
			fmt.Fprintln(os.Stderr, "mismatch:", err)
		}
	}
	attempted := len(lat) + len(checks)
	rep.add("checked %d sampled answers and %d pool predicates against the scan", len(samples), len(checks))
	samples, s.ref = nil, nil

	m := metricSet{}
	setTimings(m, rep, setupSecs, lat, elapsed, probes)
	m.set("vectors_per_query", float64(vectors)/float64(max(len(lat), 1)))
	m.set("index_bytes_per_row", float64(s.indexBytes)/float64(s.rows))
	m.set("heap_mb", liveHeapMB())
	runtime.KeepAlive(s)
	rep.add("failed_frac %.6g (%d of %d)", float64(failed)/float64(attempted), failed, attempted)
	return result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, rep, nil
}

func runIngest(cfg runConfig) (result, *report, error) {
	rows := cfg.Rows
	if rows == 0 {
		rows = ingestRows
	}
	setups := cmp.Or(cfg.Setups, ingestSetups)
	if cfg.Trace {
		setups = 1
	}
	is, setupSecs, err := timedSetups(setups, func() (*ingestSystem, error) { return setupIngest(cfg.Seed, rows) })
	if err != nil {
		return result{}, nil, fmt.Errorf("set-up: %w", err)
	}
	star := starOf(rows)
	window := time.Duration(cfg.Seconds * float64(time.Second))
	rep := &report{}
	rep.add("workload ingest seed %d: %d initial rows, %d rows/s offered", cfg.Seed, rows, batchRows*int(time.Second/batchPeriod))

	obs.Enable()
	defer obs.Disable()
	next := ingestReads(rng(cfg.Seed, 1), star)
	for warm := time.Now().Add(window / 20); time.Now().Before(warm); {
		if _, _, err := is.ex.Eval(next()); err != nil {
			return result{}, nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	l, err := is.load(cfg.Seed, star, window, cfg.Trace)
	if err != nil {
		return result{}, nil, err
	}
	rep.add("writer appended %d rows in %.2f s (%.0f rows/s); batch p99 %.4g ms from due time",
		l.appended, l.writerSecs, float64(l.appended)/l.writerSecs, percentile(l.batches, 99))
	rep.add("re-encode: plan %.4g s, live flip %.4g s", l.planSecs, l.flipSecs)

	if cfg.Trace {
		res, err := traced(cfg, is.target(), ingestReads(rng(cfg.Seed, 1), star), rep)
		if err != nil {
			return result{}, nil, err
		}
		perRow := float64(batchPeriod) / batchRows
		res.Metrics.set("core.append.p99_budget_share", percentile(l.appendsNS, 99)/perRow)
		res.Metrics.set("core.reencode.flip_share", l.flipSecs/cfg.Seconds)
		return res, rep, nil
	}

	bad, err := is.check(cfg.Seed, star)
	if err != nil {
		return result{}, nil, err
	}
	failed := l.errors + bad
	attempted := len(l.reads) + ingestChecks
	is.ref = nil

	m := metricSet{}
	setTimings(m, rep, setupSecs, l.reads, l.readSecs, l.probes)
	m.set("vectors_per_query", float64(l.vectors)/float64(max(len(l.reads), 1)))
	m.set("index_bytes_per_row", float64(is.snapshot().SizeBytes())/float64(is.sx.Len()))
	m.set("heap_mb", liveHeapMB())
	runtime.KeepAlive(is)
	rep.add("append_p99_ms %.6g ms, appends_per_s %.6g 1/s, reencode_s %.6g s",
		percentile(l.batches, 99), float64(l.appended)/l.writerSecs, l.flipSecs)
	rep.add("checked %d predicates against the scan", ingestChecks)
	rep.add("failed_frac %.6g (%d of %d)", float64(failed)/float64(attempted), failed, attempted)
	return result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, rep, nil
}

// traced replays the first TraceQueries queries of the stream decomposed,
// plain and with telemetry, and reports the per-layer metrics. The ingest
// layers read 0 here; runIngest fills them in.
func traced(cfg runConfig, tg target, next func() query.Predicate, rep *report) (result, error) {
	qs := make([]query.Predicate, cfg.TraceQueries)
	for i := range qs {
		qs[i] = next()
	}
	obs.Disable()
	for _, p := range qs[:len(qs)/20] {
		if _, _, _, err := tg.eval(p); err != nil {
			return result{}, fmt.Errorf("warm-up: %w", err)
		}
	}
	t := newTracer()
	rs, err := replay(t, tg, qs, time.Duration(cfg.Seconds*float64(time.Second)))
	if err != nil {
		return result{}, err
	}
	m := metricSet{}
	layerMetrics(t, rs, m)
	m.set("core.append.p99_budget_share", 0)
	m.set("core.reencode.flip_share", 0)
	if cfg.Spans != "" {
		if err := writeSpans(cfg.Spans, t.spans); err != nil {
			return result{}, fmt.Errorf("write spans: %w", err)
		}
	}
	rep.add("traced %d queries, %d spans; %d decomposed answers differ from the plain evaluation", rs.queries, len(t.spans), rs.mismatches)
	return result{Correct: rs.mismatches == 0, Attempted: rs.queries, Failed: rs.mismatches, Metrics: m}, nil
}

// setTimings sets the timing metrics at the reference speed (probe.go):
// setup_s, and query_p50_ms, query_p99_ms and query_qps from the window's
// latencies. query_qps is the rate one client achieves at their mean.
func setTimings(m metricSet, rep *report, setupSecs float64, lat []float64, secs float64, probes probeLog) {
	scaled := probes.scaled(lat)
	var sum float64
	for _, ms := range scaled {
		sum += ms
	}
	m.set("setup_s", setupSecs*refProbeNS/probes.quiet())
	m.set("query_p50_ms", percentile(scaled, 50))
	m.set("query_p99_ms", percentile(scaled, 99))
	m.set("query_qps", float64(len(scaled))/(sum/1e3))
	rep.add("%d queries in %.2f s (p99 has %d beyond it)", len(lat), secs, len(lat)/100)
	rep.add("probes: quiet %.2f µs, median %.2f µs, reference %.0f µs; unscaled set-up %.4g s, p50 %.4g ms, p99 %.4g ms",
		probes.quiet()/1e3, percentile(probes, 50)/1e3, refProbeNS/1e3, setupSecs, percentile(lat, 50), percentile(lat, 99))
}

// percentile returns the nearest-rank p-th percentile.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[max(i, 0)]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// liveHeapMB returns the heap left after two full collections.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
