package drift

import (
	"sync"
	"time"

	"repro/internal/advisor"
	"repro/internal/core"
	"repro/internal/encoding"
	"repro/internal/obs"
)

// IndexView is what the watcher needs from the watched index: the
// planning entry point plus the shape numbers for the advisor's column
// profile. Both core.Index and core.Synced satisfy it; with Synced the
// watcher plans on the live snapshot while queries keep running.
type IndexView[V comparable] interface {
	PlanReencode(predicates [][]V, weights []int, searchOpt *encoding.SearchOptions) (*core.ReencodePlan[V], error)
	K() int
	Len() int
	Cardinality() int
}

// Config tunes a Watcher. The zero value is usable: every field has a
// default.
type Config struct {
	// Interval between background runs (default 10s).
	Interval time.Duration
	// ScoreThreshold is the rolling drift score above which the watcher
	// emits a structured-log warning, edge-triggered on the crossing
	// (default 0.25).
	ScoreThreshold float64
	// Ordered marks the watched column as totally ordered for the
	// advisor's column profile.
	Ordered bool
	// Logger receives the threshold events (nil for obs.DefaultLogger).
	Logger *obs.Logger
	// Apply turns the watcher from report-only into self-tuning: when a
	// run's drift score is at or above ScoreThreshold and the plan's
	// gain is at least MinGain, the watcher applies the plan live
	// through the index's Reencoder interface (core.Synced's
	// zero-downtime shadow rebuild + epoch flip). Applies are
	// edge-triggered — a successful apply resets the recorder, so the
	// score collapses to zero until drift genuinely re-accumulates —
	// and rate-limited by ApplyCooldown. Ignored when the watched index
	// does not implement Reencoder.
	Apply bool
	// MinGain is the minimum per-evaluation vector-read saving a plan
	// must show before Apply acts on it (default 1).
	MinGain int
	// ApplyCooldown is the minimum time between two applies (default
	// 1m), bounding rebuild churn under oscillating workloads.
	ApplyCooldown time.Duration
}

// Reencoder is the apply half of live adaptive re-encoding: an index
// that can swap its encoding while serving reads. core.Synced
// implements it with a background shadow rebuild, catch-up replay, and
// an atomic epoch flip.
type Reencoder[V comparable] interface {
	Reencode(newMapping *encoding.Mapping[V]) error
}

// DefaultInterval is the background run period when Config.Interval is
// unset.
const DefaultInterval = 10 * time.Second

// DefaultScoreThreshold is the drift-score warning level when
// Config.ScoreThreshold is unset.
const DefaultScoreThreshold = 0.25

// DefaultApplyCooldown is the minimum spacing between live applies when
// Config.ApplyCooldown is unset.
const DefaultApplyCooldown = time.Minute

// PlanReport is the published summary of a core.ReencodePlan.
type PlanReport struct {
	Predicates           int `json:"predicates"`
	CurrentCost          int `json:"current_cost"`
	NewCost              int `json:"new_cost"`
	Gain                 int `json:"gain"`
	BreakEvenEvaluations int `json:"break_even_evaluations"`
	RebuildVectors       int `json:"rebuild_vectors"`
	ProposedK            int `json:"proposed_k"`
}

// AdviceReport is the published summary of an advisor.Recommendation.
type AdviceReport struct {
	Kind   string `json:"kind"`
	Reason string `json:"reason"`
}

// ApplyReport records the most recent live re-encoding the watcher
// applied (or attempted).
type ApplyReport struct {
	Time      time.Time `json:"time"`
	Gain      int       `json:"gain"`
	NewCost   int       `json:"new_cost"`
	ProposedK int       `json:"proposed_k"`
	Error     string    `json:"error,omitempty"`
}

// Report is one watcher run's published state — the /debug/drift
// payload under the watcher's name.
type Report struct {
	Name           string          `json:"name"`
	Time           time.Time       `json:"time"`
	Runs           uint64          `json:"runs"`
	Observed       uint64          `json:"observed"`
	DriftScore     float64         `json:"drift_score"`
	SketchCapacity int             `json:"sketch_capacity"`
	SketchErrBound uint64          `json:"sketch_err_bound"`
	TopPredicates  []obs.TopKEntry `json:"top_predicates,omitempty"`
	Plan           *PlanReport     `json:"plan,omitempty"`
	Advice         *AdviceReport   `json:"advice,omitempty"`
	Applies        uint64          `json:"applies,omitempty"`
	LastApply      *ApplyReport    `json:"last_apply,omitempty"`
	Error          string          `json:"error,omitempty"`
}

var mWatcherRuns = obs.Default().Counter("ebi_drift_watcher_runs_total",
	"Drift-watcher planning runs across all watched indexes.")

var mApplies = obs.Default().Counter("ebi_drift_applies_total",
	"Live re-encodings applied by drift watchers across all watched indexes.")

// Watcher periodically turns a Recorder's sketch into a weighted
// workload, prices a re-encoding, asks the advisor whether the index
// kind still fits, and publishes the result as gauges, a /debug/drift
// report, and (on threshold crossings) a structured-log event. Start
// launches the background goroutine; Stop halts it, waits for it, and
// removes the /debug/drift registration — no goroutine survives Stop.
type Watcher[V comparable] struct {
	ix  IndexView[V]
	rec *Recorder[V]
	cfg Config

	gGain      *obs.Gauge
	gBreakEven *obs.Gauge
	gProposedK *obs.Gauge
	gApplies   *obs.Gauge

	mu            sync.Mutex
	report        Report
	runs          uint64
	wasAbove      bool
	applies       uint64
	lastApply     *ApplyReport
	lastApplyTime time.Time
	stop          chan struct{}
	done          chan struct{}
	started       bool
}

// NewWatcher builds a watcher over ix fed by rec. The watcher is
// registered under the recorder's name; it is inert until Start (or a
// manual RunOnce).
func NewWatcher[V comparable](ix IndexView[V], rec *Recorder[V], cfg Config) *Watcher[V] {
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultInterval
	}
	if cfg.ScoreThreshold <= 0 {
		cfg.ScoreThreshold = DefaultScoreThreshold
	}
	if cfg.Logger == nil {
		cfg.Logger = obs.DefaultLogger()
	}
	if cfg.MinGain <= 0 {
		cfg.MinGain = 1
	}
	if cfg.ApplyCooldown <= 0 {
		cfg.ApplyCooldown = DefaultApplyCooldown
	}
	suffix := MetricSuffix(rec.Name())
	return &Watcher[V]{
		ix:  ix,
		rec: rec,
		cfg: cfg,
		gGain: obs.Default().Gauge("ebi_drift_plan_gain_"+suffix,
			"Per-workload-evaluation vector reads the latest proposed re-encoding of index "+rec.Name()+" would save."),
		gBreakEven: obs.Default().Gauge("ebi_drift_plan_break_even_"+suffix,
			"Workload evaluations before the latest proposed re-encoding of index "+rec.Name()+" pays off (-1: never)."),
		gProposedK: obs.Default().Gauge("ebi_drift_plan_proposed_k_"+suffix,
			"Vector count k of the latest proposed re-encoding of index "+rec.Name()+"."),
		gApplies: obs.Default().Gauge("ebi_drift_applies_"+suffix,
			"Live re-encodings the watcher has applied to index "+rec.Name()+"."),
	}
}

// Recorder returns the watcher's recorder (the observer to install on
// the index).
func (w *Watcher[V]) Recorder() *Recorder[V] { return w.rec }

// Start launches the background loop and registers the /debug/drift
// source. Calling Start on a running watcher is a no-op.
func (w *Watcher[V]) Start() {
	w.mu.Lock()
	if w.started {
		w.mu.Unlock()
		return
	}
	w.started = true
	w.stop = make(chan struct{})
	w.done = make(chan struct{})
	stop, done := w.stop, w.done
	w.mu.Unlock()

	obs.RegisterDriftSource(w.rec.Name(), func() any { return w.Report() })
	go w.loop(stop, done)
}

func (w *Watcher[V]) loop(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	t := time.NewTicker(w.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			w.RunOnce()
		}
	}
}

// Stop halts the background loop, waits for it to exit, and removes
// the /debug/drift registration. Safe to call on a stopped watcher.
func (w *Watcher[V]) Stop() {
	w.mu.Lock()
	if !w.started {
		w.mu.Unlock()
		return
	}
	w.started = false
	stop, done := w.stop, w.done
	w.mu.Unlock()

	close(stop)
	<-done
	obs.UnregisterDriftSource(w.rec.Name())
}

// Report returns the latest published report (zero-valued before the
// first run).
func (w *Watcher[V]) Report() Report {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.report
}

// RunOnce performs one profiling-and-planning pass synchronously and
// returns (and publishes) the resulting report. The background loop
// calls it on every tick; tests and demos may drive it directly.
func (w *Watcher[V]) RunOnce() Report {
	mWatcherRuns.Inc()
	rep := Report{
		Name:           w.rec.Name(),
		Time:           time.Now(),
		Observed:       w.rec.Observed(),
		DriftScore:     w.rec.Score(),
		SketchCapacity: w.rec.SketchCapacity(),
		TopPredicates:  w.rec.TopPredicates(10),
	}
	rep.SketchErrBound = rep.Observed / uint64(rep.SketchCapacity)

	// The planned workload is everything the sketch retains, searched
	// with the default options: their fixed seed makes planning
	// deterministic, so a watcher report and an offline PlanReencode over
	// the same captured workload agree exactly.
	preds, weights := w.rec.Workload(0)
	var plan *core.ReencodePlan[V]
	if len(preds) > 0 {
		var err error
		plan, err = w.ix.PlanReencode(preds, weights, nil)
		if err != nil {
			rep.Error = err.Error()
			plan = nil
		} else {
			rep.Plan = &PlanReport{
				Predicates:           len(preds),
				CurrentCost:          plan.CurrentCost,
				NewCost:              plan.NewCost,
				Gain:                 plan.Gain(),
				BreakEvenEvaluations: plan.BreakEvenEvaluations(),
				RebuildVectors:       plan.RebuildVectors,
				ProposedK:            plan.Mapping.K(),
			}
			w.gGain.Set(int64(rep.Plan.Gain))
			w.gBreakEven.Set(int64(rep.Plan.BreakEvenEvaluations))
			w.gProposedK.Set(int64(rep.Plan.ProposedK))
		}
		if adv, err := w.advise(preds, weights); err == nil {
			rep.Advice = adv
		}
	}

	w.maybeApply(&rep, plan)
	w.publish(&rep)
	return rep
}

// maybeApply applies the run's plan live when apply mode is on, the
// watched index can re-encode itself, the score is at or above the
// threshold, the gain clears the floor, and the cooldown has elapsed. A
// successful apply resets the recorder — the captured workload has been
// paid for, so the drift score restarts from zero (the apply analogue
// of the warning's edge triggering).
func (w *Watcher[V]) maybeApply(rep *Report, plan *core.ReencodePlan[V]) {
	if !w.cfg.Apply || plan == nil {
		return
	}
	re, ok := w.ix.(Reencoder[V])
	if !ok {
		return
	}
	if rep.DriftScore < w.cfg.ScoreThreshold || plan.Gain() < w.cfg.MinGain {
		return
	}
	w.mu.Lock()
	last := w.lastApplyTime
	w.mu.Unlock()
	if !last.IsZero() && time.Since(last) < w.cfg.ApplyCooldown {
		return
	}

	ar := &ApplyReport{
		Time:      time.Now(),
		Gain:      plan.Gain(),
		NewCost:   plan.NewCost,
		ProposedK: plan.Mapping.K(),
	}
	err := re.Reencode(plan.Mapping)
	if err != nil {
		ar.Error = err.Error()
	} else {
		w.rec.Reset()
		mApplies.Inc()
	}

	w.mu.Lock()
	w.lastApply = ar
	if err == nil {
		w.applies++
		w.lastApplyTime = ar.Time
	}
	applies := w.applies
	w.mu.Unlock()
	w.gApplies.Set(int64(applies))

	if err != nil {
		if w.cfg.Logger.Enabled(obs.LevelWarn) {
			w.cfg.Logger.Warn("live re-encoding failed",
				obs.Str("index", rep.Name), obs.Str("error", err.Error()))
		}
		return
	}
	if w.cfg.Logger.Enabled(obs.LevelInfo) {
		w.cfg.Logger.Info("live re-encoding applied",
			obs.Str("index", rep.Name),
			obs.Float("score", rep.DriftScore),
			obs.Int("gain", int64(ar.Gain)),
			obs.Int("new_cost", int64(ar.NewCost)),
			obs.Int("proposed_k", int64(ar.ProposedK)))
	}
}

// advise maps the captured workload onto the advisor's profile
// vocabulary: the weighted fraction of multi-value predicates is the
// range fraction, their weighted mean width the average range width,
// and sketch-captured predicates are by construction "predefined".
func (w *Watcher[V]) advise(preds [][]V, weights []int) (*AdviceReport, error) {
	var total, ranged, widthSum int
	for i, p := range preds {
		wt := weights[i]
		total += wt
		if len(p) > 1 {
			ranged += wt
			widthSum += wt * len(p)
		}
	}
	prof := advisor.WorkloadProfile{PredefinedRanges: true}
	if ranged > 0 {
		prof.RangeFraction = float64(ranged) / float64(total)
		prof.AvgRangeWidth = widthSum / ranged
	}
	rec, err := advisor.Advise(advisor.ColumnProfile{
		Name:        w.rec.Name(),
		Rows:        w.ix.Len(),
		Cardinality: w.ix.Cardinality(),
		Ordered:     w.cfg.Ordered,
	}, prof, 0, 0) // the paper's 4096-byte pages and degree-512 B-tree
	if err != nil {
		return nil, err
	}
	return &AdviceReport{Kind: rec.Kind.String(), Reason: rec.Reason}, nil
}

// publish stores the report and emits the edge-triggered threshold
// event.
func (w *Watcher[V]) publish(rep *Report) {
	w.mu.Lock()
	w.runs++
	rep.Runs = w.runs
	rep.Applies = w.applies
	rep.LastApply = w.lastApply
	above := rep.DriftScore >= w.cfg.ScoreThreshold
	crossed := above && !w.wasAbove
	w.wasAbove = above
	w.report = *rep
	w.mu.Unlock()

	if crossed && w.cfg.Logger.Enabled(obs.LevelWarn) {
		fields := []obs.Field{
			obs.Str("index", rep.Name),
			obs.Float("score", rep.DriftScore),
			obs.Float("threshold", w.cfg.ScoreThreshold),
			obs.Int("observed", int64(rep.Observed)),
		}
		if rep.Plan != nil {
			fields = append(fields,
				obs.Int("gain", int64(rep.Plan.Gain)),
				obs.Int("break_even_evaluations", int64(rep.Plan.BreakEvenEvaluations)))
		}
		w.cfg.Logger.Warn("encoding drift above threshold", fields...)
	}
}
