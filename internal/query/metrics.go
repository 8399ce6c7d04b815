package query

import "repro/internal/obs"

// Query-layer telemetry. A query record's finish (record.go) is the only
// place that feeds the process-wide ebi_*_total cost counters (via
// obs.AddStats), so the telemetry totals are exactly the sum of the
// iostat.Stats values returned to callers.
var (
	mQueries = obs.Default().Counter("ebi_queries_total",
		"Top-level predicate evaluations: Executor, Planner and EXPLAIN ANALYZE.")
	mQueryErrors = obs.Default().Counter("ebi_query_errors_total",
		"Top-level predicate evaluations that returned an error.")
	hQuerySeconds = obs.Default().Histogram("ebi_query_seconds",
		"Wall-clock latency of top-level predicate evaluations.", obs.LatencyBuckets)
	mPlannerChoices = obs.Default().Counter("ebi_planner_choices_total",
		"Leaf predicates routed through a registered access path.")
	mPlannerFallbacks = obs.Default().Counter("ebi_planner_fallbacks_total",
		"Leaf predicates that fell back to the base executor.")
	mPlannerMisestimates = obs.Default().Counter("ebi_planner_misestimates_total",
		"Leaf routings whose cost estimate was off by more than 2x the actual cost.")
)
