// Package flight is the incident-capture half of the flight recorder:
// it watches the obs time-series ring for trigger conditions — latency
// SLO burn, drift score over the watcher's warn line, a slow-query
// capture burst — and atomically dumps a bundle of everything an
// operator needs to reconstruct the incident after the fact: the
// trailing time-series window, recent traces with their resource
// windows, slow-log entries, the page heatmap, drift reports, and
// goroutine/heap profiles. Bundles land in a bounded on-disk directory,
// are listed at /debug/incidents, and are inspectable offline with
// `ebicli incidents`.
package flight

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// driftScorePrefix matches the per-index drift-score gauges published
// by internal/drift recorders (values are score x1000).
const driftScorePrefix = "ebi_drift_score_milli_"

// Config tunes a Recorder. Dir and Scraper are required; every other
// field has a default.
type Config struct {
	// Dir is the bundle directory; created if absent.
	Dir string
	// Scraper supplies both the trigger samples and each bundle's
	// time-series window.
	Scraper *obs.Scraper

	// MaxBundles bounds the directory: after each capture the oldest
	// bundles beyond this count are pruned (default 16).
	MaxBundles int
	// Cooldown suppresses automatic captures for this long after any
	// capture; manual triggers ignore it (default 5m).
	Cooldown time.Duration
}

// Bundle contents and trigger thresholds. A bundle holds the trailing
// bundleWindow of time series and the most recent bundleTraces traces and
// bundleSlowlog slow queries. One fires when the rolling latency SLO burn
// rate reaches latencyBurn (1.0: the error budget is being consumed
// exactly as fast as it accrues), when any ebi_drift_score_milli_* gauge
// reaches driftScore (the drift watcher's 0..1 scale; 0.25 is its warn
// line), or when one scrape interval captures at least slowlogBurst slow
// queries.
const (
	bundleWindow  = 2 * time.Minute
	bundleTraces  = 20
	bundleSlowlog = 50
	latencyBurn   = 1.0
	driftScore    = 0.25
	slowlogBurst  = 10
)

func (cfg Config) withDefaults() Config {
	if cfg.MaxBundles <= 0 {
		cfg.MaxBundles = 16
	}
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = 5 * time.Minute
	}
	return cfg
}

// Manifest describes one captured bundle. It is written last, so a
// directory containing a parseable manifest.json is a complete bundle.
type Manifest struct {
	ID        string `json:"id"`
	UnixMilli int64  `json:"unix_ms"`
	Reason    string `json:"reason"`
	// Trigger records the sample values that fired (or, for manual
	// captures, the values at capture time).
	Trigger map[string]float64 `json:"trigger,omitempty"`
	// Files lists the bundle's contents, manifest excluded.
	Files []string `json:"files"`
	// TraceIDs are the trace roots captured in traces.json, newest
	// first — resolvable against /traces?id= while still retained.
	TraceIDs []uint64 `json:"trace_ids"`
	// SlowlogQueries are the captured slow queries' predicate strings,
	// newest first (full entries are in slowlog.json).
	SlowlogQueries []string `json:"slowlog_queries"`
	// WindowFromMilli/WindowToMilli bound the captured time-series
	// window (zero when the ring was empty).
	WindowFromMilli int64 `json:"window_from_ms"`
	WindowToMilli   int64 `json:"window_to_ms"`
}

// Recorder owns the bundle directory and the trigger subscription.
type Recorder struct {
	cfg Config

	mBundles  *obs.Counter
	mTriggers *obs.Counter

	mu       sync.Mutex
	seq      int
	lastAuto time.Time
	stopped  bool
}

// New validates cfg, creates the bundle directory, and returns an inert
// recorder; Start arms the triggers and mounts /debug/incidents.
func New(cfg Config) (*Recorder, error) {
	if cfg.Dir == "" {
		return nil, errors.New("flight: Config.Dir is required")
	}
	if cfg.Scraper == nil {
		return nil, errors.New("flight: Config.Scraper is required")
	}
	cfg = cfg.withDefaults()
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("flight: %w", err)
	}
	reg := obs.Default()
	return &Recorder{
		cfg:       cfg,
		mBundles:  reg.Counter("ebi_incident_bundles_total", "Incident bundles written by the flight recorder."),
		mTriggers: reg.Counter("ebi_incident_triggers_total", "Incident trigger firings, including those suppressed by cooldown."),
	}, nil
}

// Start subscribes to the scraper's samples and registers the
// /debug/incidents route. The scraper itself must be started by the
// caller (the recorder never owns its lifecycle).
func (r *Recorder) Start() {
	r.cfg.Scraper.OnSample(r.onSample)
	obs.RegisterRoute("/debug/incidents", "incident bundles: GET lists manifests (?id= one), POST captures now",
		http.HandlerFunc(r.serveHTTP))
}

// Stop disarms the triggers and unmounts the route. The OnSample
// subscription cannot be removed, so the callback goes quiescent via a
// flag instead.
func (r *Recorder) Stop() {
	r.mu.Lock()
	r.stopped = true
	r.mu.Unlock()
	obs.UnregisterRoute("/debug/incidents")
}

// onSample checks one scrape against the trigger conditions. The audit
// trigger outranks the rest: a correctness failure is always the
// headline, whatever else fired in the same interval.
func (r *Recorder) onSample(smp obs.Sample) {
	reason := ""
	trigger := map[string]float64{}
	// Counters scrape as per-interval deltas, so >= 1 means at least one
	// new audit failure since the previous sample.
	for _, k := range []string{"ebi_audit_mismatches_total", "ebi_audit_stats_divergence_total"} {
		if v := smp.Values[k]; v >= 1 {
			reason = "audit-mismatch"
			trigger[k] = v
		}
	}
	if v := smp.Values["ebi_slo_latency_burn_milli"]; v >= latencyBurn*1000 {
		if reason == "" {
			reason = "latency-burn"
		}
		trigger["ebi_slo_latency_burn_milli"] = v
	}
	for k, v := range smp.Values {
		if strings.HasPrefix(k, driftScorePrefix) && v >= driftScore*1000 {
			if reason == "" {
				reason = "drift-score"
			}
			trigger[k] = v
		}
	}
	if v := smp.Values["ebi_slow_queries_total"]; v >= slowlogBurst {
		if reason == "" {
			reason = "slowlog-burst"
		}
		trigger["ebi_slow_queries_total"] = v
	}
	if reason == "" {
		return
	}

	r.mTriggers.Inc()
	r.mu.Lock()
	quiet := r.stopped || time.Since(r.lastAuto) < r.cfg.Cooldown
	if !quiet {
		r.lastAuto = time.Now()
	}
	r.mu.Unlock()
	if quiet {
		return
	}
	if _, err := r.capture(reason, trigger); err != nil {
		obs.DefaultLogger().Error("flight.capture", obs.Str("reason", reason), obs.Str("err", err.Error()))
	}
}

// Trigger captures a bundle immediately (the manual path — POST
// /debug/incidents and tests). It ignores the cooldown but still
// refreshes it, so a manual capture also quiets automatic ones.
func (r *Recorder) Trigger(reason string) (Manifest, error) {
	if reason == "" {
		reason = "manual"
	}
	r.mu.Lock()
	r.lastAuto = time.Now()
	r.mu.Unlock()
	return r.capture(reason, nil)
}

// capture atomically writes one bundle: everything lands in a temp
// directory first — manifest last — and a rename publishes it, so a
// reader never sees a partial bundle under its final name.
func (r *Recorder) capture(reason string, trigger map[string]float64) (Manifest, error) {
	now := time.Now()
	r.mu.Lock()
	r.seq++
	id := fmt.Sprintf("%s-%03d-%s", now.UTC().Format("20060102T150405"), r.seq%1000, sanitize(reason))
	r.mu.Unlock()

	tmp := filepath.Join(r.cfg.Dir, ".tmp-"+id)
	final := filepath.Join(r.cfg.Dir, id)
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return Manifest{}, fmt.Errorf("flight: %w", err)
	}
	defer os.RemoveAll(tmp) // no-op after the rename succeeds

	man := Manifest{ID: id, UnixMilli: now.UnixMilli(), Reason: reason, Trigger: trigger}

	win := r.cfg.Scraper.Window(bundleWindow, 0)
	if n := len(win.UnixMilli); n > 0 {
		man.WindowFromMilli, man.WindowToMilli = win.UnixMilli[0], win.UnixMilli[n-1]
	}
	traces := obs.DefaultTracer().Recent(bundleTraces)
	for _, sp := range traces {
		man.TraceIDs = append(man.TraceIDs, sp.TraceID)
	}
	slow := obs.DefaultSlowLog().Recent(bundleSlowlog)
	for _, q := range slow {
		man.SlowlogQueries = append(man.SlowlogQueries, q.Query)
	}

	steps := []struct {
		name  string
		write func(*os.File) error
	}{
		{"timeseries.json", jsonTo(win)},
		{"traces.json", jsonTo(traces)},
		{"slowlog.json", jsonTo(slow)},
		{"heatmap.json", jsonTo(obs.HeatmapSnapshot())},
		{"drift.json", jsonTo(obs.DriftSnapshot())},
		{"audit.json", jsonTo(obs.AuditSnapshot())},
		{"goroutine.txt", profileTo("goroutine", 1)},
		{"heap.pprof", profileTo("heap", 0)},
	}
	for _, st := range steps {
		if err := writeFile(filepath.Join(tmp, st.name), st.write); err != nil {
			return Manifest{}, fmt.Errorf("flight: %s: %w", st.name, err)
		}
		man.Files = append(man.Files, st.name)
	}
	if err := writeFile(filepath.Join(tmp, "manifest.json"), jsonTo(man)); err != nil {
		return Manifest{}, fmt.Errorf("flight: manifest: %w", err)
	}
	if err := os.Rename(tmp, final); err != nil {
		return Manifest{}, fmt.Errorf("flight: publish: %w", err)
	}
	r.mBundles.Inc()
	r.prune()
	return man, nil
}

func sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		}
		return '_'
	}, s)
}

func jsonTo(v any) func(*os.File) error {
	return func(f *os.File) error {
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		return enc.Encode(v)
	}
}

func profileTo(name string, debug int) func(*os.File) error {
	return func(f *os.File) error {
		p := pprof.Lookup(name)
		if p == nil {
			return fmt.Errorf("profile %q unavailable", name)
		}
		return p.WriteTo(f, debug)
	}
}

func writeFile(path string, write func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// prune removes the oldest published bundles beyond MaxBundles. Bundle
// IDs start with a UTC timestamp, so lexicographic order is capture
// order.
func (r *Recorder) prune() {
	ids, err := bundleIDs(r.cfg.Dir)
	if err != nil || len(ids) <= r.cfg.MaxBundles {
		return
	}
	for _, id := range ids[:len(ids)-r.cfg.MaxBundles] {
		_ = os.RemoveAll(filepath.Join(r.cfg.Dir, id))
	}
}

func bundleIDs(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var ids []string
	for _, e := range ents {
		if e.IsDir() && !strings.HasPrefix(e.Name(), ".") {
			ids = append(ids, e.Name())
		}
	}
	sort.Strings(ids)
	return ids, nil
}

// List returns every published bundle's manifest, oldest first.
// Directories without a parseable manifest (a capture that died before
// publishing, a stray dir) are skipped. It is also usable offline, with
// no recorder: see ListDir.
func (r *Recorder) List() ([]Manifest, error) { return ListDir(r.cfg.Dir) }

// ListDir reads every bundle manifest under dir, oldest first — the
// `ebicli incidents` entry point.
func ListDir(dir string) ([]Manifest, error) {
	ids, err := bundleIDs(dir)
	if err != nil {
		return nil, err
	}
	var out []Manifest
	for _, id := range ids {
		m, err := ReadManifest(filepath.Join(dir, id))
		if err != nil {
			continue
		}
		out = append(out, m)
	}
	return out, nil
}

// ReadManifest parses one bundle directory's manifest.json.
func ReadManifest(bundleDir string) (Manifest, error) {
	buf, err := os.ReadFile(filepath.Join(bundleDir, "manifest.json"))
	if err != nil {
		return Manifest{}, err
	}
	var m Manifest
	if err := json.Unmarshal(buf, &m); err != nil {
		return Manifest{}, fmt.Errorf("flight: %s: %w", bundleDir, err)
	}
	return m, nil
}

// serveHTTP is the /debug/incidents endpoint: GET lists manifests
// (?id=BUNDLE returns one), POST captures a bundle now (?reason= tags
// it) and returns its manifest.
func (r *Recorder) serveHTTP(w http.ResponseWriter, req *http.Request) {
	switch req.Method {
	case http.MethodPost:
		man, err := r.Trigger(req.URL.Query().Get("reason"))
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		obs.WriteJSON(w, man)
	case http.MethodGet, http.MethodHead:
		if id := req.URL.Query().Get("id"); id != "" {
			if id != sanitize(id) { // IDs are sanitized at birth; reject traversal
				http.Error(w, "bad id", http.StatusBadRequest)
				return
			}
			man, err := ReadManifest(filepath.Join(r.cfg.Dir, id))
			if err != nil {
				http.Error(w, "bundle not found", http.StatusNotFound)
				return
			}
			obs.WriteJSON(w, man)
			return
		}
		mans, err := r.List()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		obs.WriteJSON(w, struct {
			Dir     string     `json:"dir"`
			Bundles []Manifest `json:"bundles"`
		}{r.cfg.Dir, mans})
	default:
		http.Error(w, "GET, HEAD, or POST", http.StatusMethodNotAllowed)
	}
}
