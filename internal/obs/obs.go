// Package obs is the stdlib-only telemetry subsystem for the encoded
// bitmap index stack. It makes the paper's Section 3 cost quantities —
// vector reads (c_s / c_e), Boolean-op counts, words and pages moved —
// continuously observable at runtime instead of benchmark-only:
//
//   - a metrics registry of atomic counters, gauges, and fixed-bucket
//     histograms, cheap enough for hot paths (a mutator is one atomic
//     load when telemetry is disabled, one load plus one atomic add when
//     enabled) and snapshotable to Prometheus text exposition format and
//     expvar-style JSON;
//   - a tracing layer of lightweight spans with a bounded in-memory ring
//     of recent traces;
//   - an http.Handler mounting /metrics, /debug/vars, /debug/pprof/*,
//     and /traces.
//
// Telemetry is disabled by default so that library users who never call
// Enable pay only the disabled-path check. All types are safe for
// concurrent use.
package obs

import "sync/atomic"

// enabled is the global switch. Mutators on every metric and StartSpan
// consult it with a single atomic load.
var enabled atomic.Bool

// Enable turns telemetry on process-wide.
func Enable() { enabled.Store(true) }

// Disable turns telemetry off process-wide. Metric values already
// accumulated are retained (and still exported); they just stop moving.
func Disable() { enabled.Store(false) }

// On reports whether telemetry is enabled. Instrumented code can use it
// to guard work that only matters when a span or metric will record it
// (e.g. rendering a predicate string for a trace attribute).
func On() bool { return enabled.Load() }
