package flight

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// newTestScraper builds a scraper over a private registry with a huge
// interval, so samples only happen via explicit ScrapeOnce calls.
func newTestScraper(cfg obs.TimeSeriesConfig) (*obs.Scraper, *obs.Registry) {
	reg := obs.NewRegistry()
	cfg.Registry = reg
	if cfg.Interval == 0 {
		cfg.Interval = time.Hour
	}
	return obs.NewScraper(cfg), reg
}

func withTelemetry(t *testing.T) {
	t.Helper()
	obs.Enable()
	t.Cleanup(obs.Disable)
}

func TestManualTriggerBundleConsistency(t *testing.T) {
	withTelemetry(t)
	s, reg := newTestScraper(obs.TimeSeriesConfig{})
	reg.Counter("fl_c_total", "").Add(3)
	s.ScrapeOnce()
	s.ScrapeOnce()

	// Seed the global tracer and slow log with known entries so the
	// bundle has something to be consistent with.
	_, sp := obs.StartSpan(context.Background(), "flight.test.query")
	sp.End()
	obs.DefaultSlowLog().Record(obs.SlowQuery{
		Time: time.Now(), Query: "v = 'flight-test'", DurationNS: int64(time.Second), Reason: "latency",
	})

	dir := t.TempDir()
	r, err := New(Config{Dir: dir, Scraper: s})
	if err != nil {
		t.Fatal(err)
	}
	man, err := r.Trigger("unit-test")
	if err != nil {
		t.Fatal(err)
	}

	if man.Reason != "unit-test" {
		t.Errorf("reason = %q", man.Reason)
	}
	bundle := filepath.Join(dir, man.ID)
	for _, f := range append(man.Files, "manifest.json") {
		if _, err := os.Stat(filepath.Join(bundle, f)); err != nil {
			t.Errorf("bundle missing listed file %s: %v", f, err)
		}
	}

	// The manifest's window bounds must match the captured ring dump.
	var win obs.TimeSeriesWindow
	buf, err := os.ReadFile(filepath.Join(bundle, "timeseries.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf, &win); err != nil {
		t.Fatalf("timeseries.json: %v", err)
	}
	if win.Samples != 2 {
		t.Errorf("captured window has %d samples, want 2", win.Samples)
	}
	if n := len(win.UnixMilli); n == 0 ||
		win.UnixMilli[0] != man.WindowFromMilli || win.UnixMilli[n-1] != man.WindowToMilli {
		t.Errorf("manifest window [%d,%d] disagrees with timeseries.json %v",
			man.WindowFromMilli, man.WindowToMilli, win.UnixMilli)
	}

	// The manifest's trace IDs must be the roots inside traces.json.
	wantTrace := sp.TraceID
	found := false
	for _, id := range man.TraceIDs {
		if id == wantTrace {
			found = true
		}
	}
	if !found {
		t.Errorf("manifest trace_ids %v missing the recorded trace %d", man.TraceIDs, wantTrace)
	}
	tbuf, err := os.ReadFile(filepath.Join(bundle, "traces.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spans []struct {
		TraceID uint64 `json:"trace_id"`
	}
	if err := json.Unmarshal(tbuf, &spans); err != nil {
		t.Fatalf("traces.json: %v", err)
	}
	ids := map[uint64]bool{}
	for _, s := range spans {
		ids[s.TraceID] = true
	}
	for _, id := range man.TraceIDs {
		if !ids[id] {
			t.Errorf("manifest trace %d not present in traces.json", id)
		}
	}

	// Slowlog: the manifest carries query strings, the file full entries.
	joined := strings.Join(man.SlowlogQueries, "\n")
	if !strings.Contains(joined, "v = 'flight-test'") {
		t.Errorf("manifest slowlog_queries %v missing the recorded query", man.SlowlogQueries)
	}

	// Reading it back offline matches what Trigger returned.
	back, err := ReadManifest(bundle)
	if err != nil {
		t.Fatal(err)
	}
	if back.ID != man.ID || back.Reason != man.Reason || back.WindowToMilli != man.WindowToMilli {
		t.Errorf("ReadManifest round-trip mismatch: %+v vs %+v", back, man)
	}
	mans, err := ListDir(dir)
	if err != nil || len(mans) != 1 || mans[0].ID != man.ID {
		t.Errorf("ListDir = %v, %v; want the one bundle", mans, err)
	}
}

func TestAutoTriggersAndCooldown(t *testing.T) {
	withTelemetry(t)
	s, reg := newTestScraper(obs.TimeSeriesConfig{
		LatencySeries: "fl_lat_seconds",
	})
	h := reg.Histogram("fl_lat_seconds", "", nil)
	drift := reg.Gauge("ebi_drift_score_milli_t", "")
	slow := reg.Counter("ebi_slow_queries_total", "")

	dir := t.TempDir()
	r, err := New(Config{Dir: dir, Scraper: s, Cooldown: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	t.Cleanup(r.Stop)

	// Quiet sample: no capture.
	s.ScrapeOnce()
	if ids, _ := bundleIDs(dir); len(ids) != 0 {
		t.Fatalf("quiet sample produced bundles: %v", ids)
	}

	// All three conditions at once: one capture, reason named for the
	// highest-priority trigger, every firing value recorded.
	for i := 0; i < 20; i++ {
		h.Observe(0.5)
	}
	drift.Set(500)
	slow.Add(15)
	s.ScrapeOnce()
	mans, err := ListDir(dir)
	if err != nil || len(mans) != 1 {
		t.Fatalf("triggered sample produced %d bundles (%v), want 1", len(mans), err)
	}
	man := mans[0]
	if man.Reason != "latency-burn" {
		t.Errorf("reason = %q, want latency-burn", man.Reason)
	}
	for _, k := range []string{"ebi_slo_latency_burn_milli", "ebi_drift_score_milli_t", "ebi_slow_queries_total"} {
		if _, ok := man.Trigger[k]; !ok {
			t.Errorf("trigger map missing %s: %v", k, man.Trigger)
		}
	}

	// The drift gauge is still over the line, but the cooldown holds.
	s.ScrapeOnce()
	if mans, _ := ListDir(dir); len(mans) != 1 {
		t.Fatalf("cooldown did not suppress the second capture: %d bundles", len(mans))
	}

	// After Stop the trigger goes quiescent entirely.
	r.Stop()
	s.ScrapeOnce()
	if mans, _ := ListDir(dir); len(mans) != 1 {
		t.Fatalf("stopped recorder still capturing: %d bundles", len(mans))
	}
}

func TestPruneBoundsDirectory(t *testing.T) {
	withTelemetry(t)
	s, _ := newTestScraper(obs.TimeSeriesConfig{})
	dir := t.TempDir()
	r, err := New(Config{Dir: dir, Scraper: s, MaxBundles: 2})
	if err != nil {
		t.Fatal(err)
	}
	var last string
	for i := 0; i < 4; i++ {
		man, err := r.Trigger("prune-test")
		if err != nil {
			t.Fatal(err)
		}
		last = man.ID
	}
	ids, err := bundleIDs(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 {
		t.Fatalf("directory holds %d bundles after prune, want 2: %v", len(ids), ids)
	}
	if ids[len(ids)-1] != last {
		t.Fatalf("prune evicted the newest bundle: kept %v, newest %s", ids, last)
	}
}

func TestIncidentsEndpoint(t *testing.T) {
	withTelemetry(t)
	s, _ := newTestScraper(obs.TimeSeriesConfig{})
	s.ScrapeOnce()
	dir := t.TempDir()
	r, err := New(Config{Dir: dir, Scraper: s})
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	t.Cleanup(r.Stop)

	srv := httptest.NewServer(obs.Handler())
	defer srv.Close()

	// POST captures now and returns the manifest.
	resp, err := http.Post(srv.URL+"/debug/incidents?reason=smoke", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST status %d: %s", resp.StatusCode, body)
	}
	var man Manifest
	if err := json.Unmarshal(body, &man); err != nil {
		t.Fatalf("POST response not a manifest: %v\n%s", err, body)
	}
	if man.Reason != "smoke" || man.ID == "" {
		t.Fatalf("POST manifest = %+v", man)
	}

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}

	// GET lists it; ?id= returns it; traversal and misses are rejected.
	code, body2 := get("/debug/incidents")
	if code != http.StatusOK || !strings.Contains(body2, man.ID) {
		t.Fatalf("GET list = %d %s", code, body2)
	}
	var list struct {
		Dir     string     `json:"dir"`
		Bundles []Manifest `json:"bundles"`
	}
	if err := json.Unmarshal([]byte(body2), &list); err != nil || len(list.Bundles) != 1 {
		t.Fatalf("GET list shape: %v\n%s", err, body2)
	}
	if code, b := get("/debug/incidents?id=" + man.ID); code != http.StatusOK || !strings.Contains(b, man.ID) {
		t.Fatalf("GET ?id= = %d %s", code, b)
	}
	if code, _ := get("/debug/incidents?id=../" + man.ID); code != http.StatusBadRequest {
		t.Fatalf("traversal id accepted: %d", code)
	}
	if code, _ := get("/debug/incidents?id=20990101T000000-001-nope"); code != http.StatusNotFound {
		t.Fatalf("missing id = %d, want 404", code)
	}

	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/debug/incidents", nil)
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("DELETE = %d, want 405", resp2.StatusCode)
	}
}

func TestNewValidation(t *testing.T) {
	s, _ := newTestScraper(obs.TimeSeriesConfig{})
	if _, err := New(Config{Scraper: s}); err == nil {
		t.Error("New accepted an empty Dir")
	}
	if _, err := New(Config{Dir: t.TempDir()}); err == nil {
		t.Error("New accepted a nil Scraper")
	}
}
