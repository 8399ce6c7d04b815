package drift

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/iostat"
	"repro/internal/obs"
)

func istats(vectors int) iostat.Stats { return iostat.Stats{VectorsRead: vectors} }

// buildWatched returns a synced index over a 16-value column with the
// recorder installed, plus the watcher (not started).
func buildWatched(t *testing.T, name string, cfg Config) (*core.Synced[int], *Watcher[int]) {
	t.Helper()
	column := make([]int, 256)
	for i := range column {
		column[i] = i % 16
	}
	// Encoding optimized for an initial workload over low values.
	s, err := core.BuildSynced(column, nil, &core.Options[int]{
		Predicates: [][]int{{0, 1, 2, 3}, {0, 1}, {2, 3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder[int](name, 32, 64)
	s.SetSelectionObserver(rec)
	return s, NewWatcher[int](s, rec, cfg)
}

// shiftWorkload runs a predicate mix the build-time encoding was not
// optimized for.
func shiftWorkload(s *core.Synced[int], rounds int) {
	for i := 0; i < rounds; i++ {
		_, _ = s.In([]int{9, 10, 11, 12})
		_, _ = s.In([]int{13, 14})
		_, _ = s.View().Eq(15)
	}
}

func TestWatcherSmoke(t *testing.T) {
	s, w := buildWatched(t, "watch-smoke", Config{Interval: 2 * time.Millisecond})
	w.Start()
	defer w.Stop()
	shiftWorkload(s, 20)

	// The watcher runs while the workload is recorded, so its first plans
	// may cover only part of it: wait for a run that saw all 60 selections.
	deadline := time.Now().Add(5 * time.Second)
	var rep Report
	for {
		rep = w.Report()
		if rep.Plan != nil && rep.Observed == 60 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no plan over the whole workload published; report = %+v", rep)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if rep.Name != "watch-smoke" || rep.Runs == 0 || rep.Observed != 60 {
		t.Fatalf("report = %+v", rep)
	}
	if rep.Plan.Predicates != 3 || rep.Plan.CurrentCost <= 0 || rep.Plan.ProposedK <= 0 {
		t.Fatalf("plan = %+v", rep.Plan)
	}
	if rep.Plan.Gain != rep.Plan.CurrentCost-rep.Plan.NewCost {
		t.Fatalf("gain %d inconsistent with costs %d/%d",
			rep.Plan.Gain, rep.Plan.CurrentCost, rep.Plan.NewCost)
	}
	if rep.Advice == nil || rep.Advice.Kind == "" {
		t.Fatalf("advice = %+v", rep.Advice)
	}
	if len(rep.TopPredicates) != 3 {
		t.Fatalf("top predicates = %+v", rep.TopPredicates)
	}
	w.Stop()
	if _, ok := obs.DriftSnapshot()["watch-smoke"]; ok {
		t.Fatal("drift source still registered after Stop")
	}
}

// TestWatcherPlanMatchesOfflineExactly is the acceptance criterion: the
// watcher's published plan must agree exactly with an offline
// PlanReencode over the same captured workload (the encoding search is
// deterministic).
func TestWatcherPlanMatchesOfflineExactly(t *testing.T) {
	s, w := buildWatched(t, "watch-parity", Config{})
	shiftWorkload(s, 10)

	rep := w.RunOnce()
	if rep.Plan == nil {
		t.Fatalf("no plan; report = %+v", rep)
	}
	preds, weights := w.Recorder().Workload(0)
	offline, err := s.PlanReencode(preds, weights, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Plan.CurrentCost != offline.CurrentCost ||
		rep.Plan.NewCost != offline.NewCost ||
		rep.Plan.Gain != offline.Gain() ||
		rep.Plan.BreakEvenEvaluations != offline.BreakEvenEvaluations() ||
		rep.Plan.RebuildVectors != offline.RebuildVectors ||
		rep.Plan.ProposedK != offline.Mapping.K() {
		t.Fatalf("watcher plan %+v != offline plan cost %d/%d gain %d be %d rebuild %d k %d",
			rep.Plan, offline.CurrentCost, offline.NewCost, offline.Gain(),
			offline.BreakEvenEvaluations(), offline.RebuildVectors, offline.Mapping.K())
	}
}

func TestWatcherStartStopLeakFree(t *testing.T) {
	_, w := buildWatched(t, "watch-leak", Config{Interval: time.Millisecond})
	before := runtime.NumGoroutine()
	w.Start()
	w.Start() // idempotent
	deadline := time.Now().Add(5 * time.Second)
	for w.Report().Runs == 0 {
		if time.Now().After(deadline) {
			t.Fatal("background loop never ran")
		}
		time.Sleep(time.Millisecond)
	}
	w.Stop()
	w.Stop() // idempotent
	for i := 0; i < 500 && runtime.NumGoroutine() > before; i++ {
		time.Sleep(time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Fatalf("goroutines %d > %d before Start", got, before)
	}
}

func TestWatcherThresholdEventEdgeTriggered(t *testing.T) {
	lg := obs.NewLogger(obs.LevelWarn)
	var mu sync.Mutex
	var events []obs.Event
	lg.AddSink(func(e obs.Event) {
		e.Fields = append([]obs.Field(nil), e.Fields...) // sinks must not retain
		mu.Lock()
		events = append(events, e)
		mu.Unlock()
	})

	column := []int{0, 1, 2, 3, 4, 5, 6, 7}
	ix, err := core.Build(column, nil, &core.Options[int]{DisableVoidReserve: true, DisableDontCares: true})
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder[int]("watch-threshold", 8, 16)
	w := NewWatcher[int](ix, rec, Config{ScoreThreshold: 0.2, Logger: lg})

	ix.SetSelectionObserver(rec)
	_, _ = ix.In([]int{0, 1, 2, 3}) // reads 1 vector, min 1: no drift
	if rep := w.RunOnce(); rep.DriftScore != 0 {
		t.Fatalf("score = %v", rep.DriftScore)
	}
	mu.Lock()
	n := len(events)
	mu.Unlock()
	if n != 0 {
		t.Fatalf("%d events below threshold", n)
	}

	// Point queries read k=3 vectors against a min of 3 — still no
	// excess. Force drift through the observer directly: the stream
	// says reads were avoidable.
	for i := 0; i < 8; i++ {
		rec.ObserveSelection([]int{i}, istats(3), 1)
	}
	w.RunOnce()
	w.RunOnce() // still above: edge-trigger must not re-fire
	mu.Lock()
	n = len(events)
	var first obs.Event
	if n > 0 {
		first = events[0]
	}
	mu.Unlock()
	if n != 1 {
		t.Fatalf("threshold events = %d, want exactly 1", n)
	}
	if first.Msg != "encoding drift above threshold" {
		t.Fatalf("event = %+v", first)
	}
	if f, ok := first.Get("index"); !ok || f.Value() != "watch-threshold" {
		t.Fatalf("event index field = %+v", first)
	}
}

func TestDebugDriftEndpointGolden(t *testing.T) {
	s, w := buildWatched(t, "watch-golden", Config{})
	shiftWorkload(s, 5)
	w.Start()
	defer w.Stop()
	w.RunOnce()

	srv := httptest.NewServer(obs.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/debug/drift")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var payload map[string]struct {
		Name           string  `json:"name"`
		Time           string  `json:"time"`
		Runs           uint64  `json:"runs"`
		Observed       uint64  `json:"observed"`
		DriftScore     float64 `json:"drift_score"`
		SketchCapacity int     `json:"sketch_capacity"`
		SketchErrBound uint64  `json:"sketch_err_bound"`
		TopPredicates  []struct {
			Key   string `json:"key"`
			Count uint64 `json:"count"`
		} `json:"top_predicates"`
		Plan *struct {
			Predicates           int `json:"predicates"`
			CurrentCost          int `json:"current_cost"`
			NewCost              int `json:"new_cost"`
			Gain                 int `json:"gain"`
			BreakEvenEvaluations int `json:"break_even_evaluations"`
			RebuildVectors       int `json:"rebuild_vectors"`
			ProposedK            int `json:"proposed_k"`
		} `json:"plan"`
		Advice *struct {
			Kind   string `json:"kind"`
			Reason string `json:"reason"`
		} `json:"advice"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		t.Fatalf("/debug/drift not JSON: %v", err)
	}
	rep, ok := payload["watch-golden"]
	if !ok {
		t.Fatalf("payload missing watch-golden: %v", payload)
	}
	if rep.Name != "watch-golden" || rep.Runs == 0 || rep.Observed != 15 ||
		rep.SketchCapacity != 32 || rep.Time == "" {
		t.Fatalf("report = %+v", rep)
	}
	if len(rep.TopPredicates) != 3 || rep.TopPredicates[0].Count != 5 {
		t.Fatalf("top_predicates = %+v", rep.TopPredicates)
	}
	if rep.Plan == nil || rep.Plan.Predicates != 3 || rep.Plan.CurrentCost <= 0 ||
		rep.Plan.ProposedK <= 0 || rep.Plan.RebuildVectors <= 0 ||
		rep.Plan.Gain != rep.Plan.CurrentCost-rep.Plan.NewCost {
		t.Fatalf("plan = %+v", rep.Plan)
	}
	if rep.Advice == nil || rep.Advice.Kind == "" || rep.Advice.Reason == "" {
		t.Fatalf("advice = %+v", rep.Advice)
	}
}
