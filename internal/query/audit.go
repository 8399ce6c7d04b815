package query

import (
	"sync/atomic"

	"repro/internal/bitvec"
	"repro/internal/iostat"
)

// The audit hook: a process-wide sink (internal/audit's Auditor) samples
// a fraction of live query executions right after they finish. The hot
// path pays exactly one atomic load while no sink is installed, and one
// extra cheap SampleQuery call (an atomic counter) while one is; only a
// sampled execution pays for cloning its row set, copying its routing
// decisions, and computing the analytic stats prediction — after which
// the record is handed to the sink, whose queue is bounded and
// non-blocking (the sink never backpressures the query path).

// AuditRecord is one sampled query execution, self-contained so the
// auditor can verify it asynchronously: the result and stats as reported
// to the caller, the analytic prediction computed synchronously at sample
// time (same encoding basis as the run, up to the sub-microsecond window
// between evaluation and sampling), and re-execution closures for
// confirmation runs.
type AuditRecord struct {
	Query   string
	Family  string
	Source  string // "executor", "planner" or "explain"
	Pred    Predicate
	Rows    *bitvec.Vector // private clone of the returned row set
	Stats   iostat.Stats
	Choices []Choice // copied routing decisions; nil for executor runs
	TraceID uint64
	N       int // logical row count at execution

	// Predicted is the Theorem 2.2/2.3 analytic prediction for this run;
	// PredictedGen stamps the encoding basis it was computed against.
	// PredictOK is false when some leaf has no analytic model.
	Predicted    iostat.Stats
	PredictedGen uint64
	PredictOK    bool

	// Rerun re-executes the query outside all telemetry and sampling;
	// Repredict recomputes the analytic prediction against the current
	// basis. Both are safe to call from the auditor's goroutine as long
	// as the engine's index registrations are not mutated while serving.
	Rerun     func() (*bitvec.Vector, iostat.Stats, error)
	Repredict func() (iostat.Stats, uint64, bool)
}

// AuditSink receives sampled query executions. SampleQuery is called on
// the query path for every successful execution while a sink is
// installed, so it must be cheap and allocation-free; ObserveQuery is
// called only for sampled executions and must not block.
type AuditSink interface {
	SampleQuery() bool
	ObserveQuery(*AuditRecord)
}

// sinkHolder wraps the interface so the hot path is a single untyped
// atomic pointer load.
type sinkHolder struct{ sink AuditSink }

var auditSink atomic.Pointer[sinkHolder]

// SetAuditSink installs the process-wide audit sink (nil uninstalls).
// One sink at a time; installation is atomic with respect to in-flight
// queries.
func SetAuditSink(s AuditSink) {
	if s == nil {
		auditSink.Store(nil)
		return
	}
	auditSink.Store(&sinkHolder{sink: s})
}

// audit is the one audit hook, fed from a finished query record.
// Planner-routed runs record their routing decisions, which pair with the
// predicate's leaves in DFS preorder, and predict and re-run through the
// planner; executor runs through the executor.
func (rec *queryRecord) audit() {
	h := auditSink.Load()
	if h == nil || rec.err != nil || rec.rows == nil || !h.sink.SampleQuery() {
		return
	}
	p, ex, pl := rec.pred, rec.run.ex, rec.run.pl
	a := &AuditRecord{
		Query: p.String(), Family: rec.familyKey(), Source: rec.source,
		Pred: p, Rows: rec.rows.Clone(), Stats: rec.run.st, N: rec.rows.Len(),
	}
	if rec.span != nil {
		a.TraceID = rec.span.TraceID
	}
	if pl == nil {
		a.Rerun = func() (*bitvec.Vector, iostat.Stats, error) { return ex.EvalForAudit(p) }
		a.Repredict = func() (iostat.Stats, uint64, bool) { return ex.PredictStats(p) }
	} else {
		cc := append([]Choice(nil), rec.run.choices...)
		a.Choices = cc
		a.Rerun = func() (*bitvec.Vector, iostat.Stats, error) {
			rows, st, _, err := pl.EvalForAudit(p)
			return rows, st, err
		}
		a.Repredict = func() (iostat.Stats, uint64, bool) { return pl.PredictStatsForRun(p, cc) }
	}
	a.Predicted, a.PredictedGen, a.PredictOK = a.Repredict()
	h.sink.ObserveQuery(a)
}
