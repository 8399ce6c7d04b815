package obs

import "sync"

// A sources registry decouples a JSON debug endpoint from the producers
// of its reports (drift watchers, auditors, paged indexes), whose packages
// import obs, so obs cannot name their types. A producer registers a
// snapshot provider under its name and removes it when it stops; the
// endpoint serves every provider's report, keyed by name.
type sources struct {
	mu sync.Mutex
	m  map[string]func() any
}

var (
	driftSources = &sources{m: map[string]func() any{}}
	auditSources = &sources{m: map[string]func() any{}}
	heatSources  = &sources{m: map[string]func() any{}}
)

func (s *sources) register(name string, fn func() any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[name] = fn
}

func (s *sources) unregister(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.m, name)
}

// snapshot calls every provider outside the lock, so a slow provider
// never blocks registration.
func (s *sources) snapshot() map[string]any {
	s.mu.Lock()
	fns := make(map[string]func() any, len(s.m))
	for name, fn := range s.m {
		fns[name] = fn
	}
	s.mu.Unlock()
	out := make(map[string]any, len(fns))
	for name, fn := range fns {
		out[name] = fn()
	}
	return out
}

// RegisterDriftSource installs (or replaces) the report provider served
// under name at /debug/drift. fn must be safe for concurrent use and
// should return a JSON-marshalable snapshot.
func RegisterDriftSource(name string, fn func() any) { driftSources.register(name, fn) }

// UnregisterDriftSource removes the provider registered under name.
func UnregisterDriftSource(name string) { driftSources.unregister(name) }

// DriftSnapshot collects every registered provider's current report,
// keyed by registration name — the /debug/drift payload.
func DriftSnapshot() map[string]any { return driftSources.snapshot() }

// RegisterAuditSource installs (or replaces) the report provider served
// under name at /debug/audit and captured into incident bundles; same
// contract as RegisterDriftSource.
func RegisterAuditSource(name string, fn func() any) { auditSources.register(name, fn) }

// UnregisterAuditSource removes the provider registered under name.
func UnregisterAuditSource(name string) { auditSources.unregister(name) }

// AuditSnapshot is the /debug/audit payload.
func AuditSnapshot() map[string]any { return auditSources.snapshot() }

// RegisterHeatmapSource installs (or replaces) the report provider
// served under name at /debug/heatmap; same contract as
// RegisterDriftSource.
func RegisterHeatmapSource(name string, fn func() any) { heatSources.register(name, fn) }

// UnregisterHeatmapSource removes the provider registered under name.
func UnregisterHeatmapSource(name string) { heatSources.unregister(name) }

// HeatmapSnapshot is the /debug/heatmap payload.
func HeatmapSnapshot() map[string]any { return heatSources.snapshot() }
