package obs

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/iostat"
)

// SlowQuery is one captured query: the predicate, its wall time and
// access cost, why it was captured, and — when the evaluation went
// through the planner — the full analyzed plan tree (a *query.Plan,
// stored as any to keep the dependency arrow pointing query -> obs).
type SlowQuery struct {
	Time       time.Time    `json:"time"`
	Query      string       `json:"query"`
	DurationNS int64        `json:"duration_ns"`
	Stats      iostat.Stats `json:"stats"`
	Reason     string       `json:"reason"` // "latency", "misestimate", or "latency+misestimate"
	// Par is the highest segmented-execution degree any plan leaf ran
	// with (0 = fully sequential); Fused reports whether any leaf went
	// through the fused single-pass evaluation kernel. Together they let
	// /debug/slowlog distinguish which engine paths a captured query
	// exercised without digging into the plan tree.
	Par   int  `json:"par,omitempty"`
	Fused bool `json:"fused,omitempty"`
	// ExcessVectors is the query's encoding-inefficiency: the sum over
	// plan leaves of actual vectors read minus the Theorem 2.2/2.3
	// theoretical minimum for the leaf's selection width. It separates
	// "slow because mis-encoded" (high excess) from "slow because big"
	// (zero excess: no re-encoding could have read fewer vectors).
	ExcessVectors int `json:"excess_vectors,omitempty"`
	Plan          any `json:"plan,omitempty"`
}

// SlowLog is a bounded ring of captured slow queries, exposed at
// /debug/slowlog. A query qualifies when its wall time crosses the
// latency threshold or when the planner flagged a >2x cost misestimate
// on any of its leaves. Safe for concurrent use.
type SlowLog struct {
	latencyNS atomic.Int64

	mu   sync.Mutex
	ring *Ring[*SlowQuery]
}

// DefaultSlowLogCapacity is the ring size of the default slow log.
const DefaultSlowLogCapacity = 128

// DefaultSlowThreshold is the default latency trigger.
const DefaultSlowThreshold = 100 * time.Millisecond

var defaultSlowLog = func() *SlowLog {
	s := NewSlowLog(DefaultSlowLogCapacity)
	s.SetLatencyThreshold(DefaultSlowThreshold)
	return s
}()

// DefaultSlowLog returns the process-wide slow log the query layer
// records into and Handler exposes.
func DefaultSlowLog() *SlowLog { return defaultSlowLog }

// NewSlowLog returns a slow log with a ring of the given capacity and
// the latency trigger disabled (threshold 0).
func NewSlowLog(capacity int) *SlowLog {
	return &SlowLog{ring: NewRing[*SlowQuery](capacity)}
}

// SetLatencyThreshold sets the wall-time trigger. A threshold <= 0
// disables latency-based capture (misestimate capture is unaffected).
func (s *SlowLog) SetLatencyThreshold(d time.Duration) { s.latencyNS.Store(int64(d)) }

// LatencyThreshold returns the current wall-time trigger.
func (s *SlowLog) LatencyThreshold() time.Duration {
	return time.Duration(s.latencyNS.Load())
}

// ShouldCapture reports whether a query with the given wall time and
// misestimate flag qualifies for the log.
func (s *SlowLog) ShouldCapture(d time.Duration, misestimated bool) bool {
	return s.reason(d, misestimated) != ""
}

// reason is the one capture rule: a query qualifies when its wall time
// reaches the latency threshold or when misestimated (some plan leaf's
// estimate was off by more than 2x). "" means it does not qualify.
func (s *SlowLog) reason(d time.Duration, misestimated bool) string {
	th := s.LatencyThreshold()
	slow := th > 0 && d >= th
	switch {
	case slow && misestimated:
		return "latency+misestimate"
	case slow:
		return "latency"
	case misestimated:
		return "misestimate"
	}
	return ""
}

// Capture applies the rule to a finished query of wall time d. A
// qualifying query's entry, stamped with its time, duration and reason, is
// filled in by fill — called only then, so a query that does not qualify
// renders nothing — recorded, and reported by one "slow query" warning on
// the default logger.
func (s *SlowLog) Capture(d time.Duration, misestimated bool, fill func(*SlowQuery)) {
	reason := s.reason(d, misestimated)
	if reason == "" {
		return
	}
	q := SlowQuery{Time: time.Now(), DurationNS: d.Nanoseconds(), Reason: reason}
	fill(&q)
	s.Record(q)
	if lg := DefaultLogger(); lg.Enabled(LevelWarn) {
		lg.Warn("slow query",
			Str("query", q.Query),
			Dur("elapsed", d),
			Str("reason", reason),
			Int("vectors_read", int64(q.Stats.VectorsRead)),
			Int("bool_ops", int64(q.Stats.BoolOps)),
			Int("rows_scanned", int64(q.Stats.RowsScanned)),
		)
	}
}

var mSlowQueries = Default().Counter("ebi_slow_queries_total",
	"Queries captured by the slow-query log (latency threshold or planner misestimate).")

// Record pushes one captured query into the ring unconditionally
// (Capture applies the rule first).
func (s *SlowLog) Record(q SlowQuery) {
	mSlowQueries.Inc()
	s.mu.Lock()
	s.ring.Push(&q)
	s.mu.Unlock()
}

// Recent returns up to n captured queries, newest first. n <= 0 returns
// everything retained.
func (s *SlowLog) Recent(n int) []*SlowQuery {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ring.Recent(n)
}

// Total returns how many queries have been captured, including ones the
// ring has already dropped.
func (s *SlowLog) Total() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ring.Total()
}
