package obs

import "runtime/metrics"

// resSnap is a point-in-time resource snapshot taken at span start and
// end; the difference is the span's attribution.
//
// cpuNS is the calling thread's CPU clock (CLOCK_THREAD_CPUTIME_ID on
// linux, 0 elsewhere). Goroutines can migrate threads, so a span that
// spans a migration under-reads, floored at its same-thread children's
// CPU (Span.End); in practice query evaluation is compute-bound and
// stays put, and the number is a measurement aid, not an invariant. allocBytes/allocObjs are the process-global cumulative
// heap-allocation counters from runtime/metrics: deltas are exact when
// one query runs at a time and an upper bound under concurrency. The
// runtime folds small allocations into these counters only when an
// mcache span is refilled, so windows that allocate a few KiB may read
// as zero; allocations over 32KiB (e.g. multi-segment bit vectors) are
// recorded immediately.
type resSnap struct {
	cpuNS      int64
	allocBytes uint64
	allocObjs  uint64
}

// Resources is the exported resource snapshot for callers outside obs
// (the planner's per-plan-node attribution). Two snapshots subtract to
// a window's CPU time and heap allocation, with the same semantics as
// span resource deltas.
type Resources struct {
	CPUNanos     int64
	AllocBytes   uint64
	AllocObjects uint64
}

// TakeResources snapshots the calling thread's CPU clock and the
// process heap-allocation counters.
func TakeResources() Resources {
	s := takeResSnap()
	return Resources{CPUNanos: s.cpuNS, AllocBytes: s.allocBytes, AllocObjects: s.allocObjs}
}

// Sub returns the window delta from prev to r, clamped at zero.
func (r Resources) Sub(prev Resources) Resources {
	var d Resources
	if r.CPUNanos > prev.CPUNanos {
		d.CPUNanos = r.CPUNanos - prev.CPUNanos
	}
	if r.AllocBytes > prev.AllocBytes {
		d.AllocBytes = r.AllocBytes - prev.AllocBytes
	}
	if r.AllocObjects > prev.AllocObjects {
		d.AllocObjects = r.AllocObjects - prev.AllocObjects
	}
	return d
}

func takeResSnap() resSnap {
	samples := [2]metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
	}
	metrics.Read(samples[:])
	var s resSnap
	s.cpuNS = threadCPUNanos()
	if samples[0].Value.Kind() == metrics.KindUint64 {
		s.allocBytes = samples[0].Value.Uint64()
	}
	if samples[1].Value.Kind() == metrics.KindUint64 {
		s.allocObjs = samples[1].Value.Uint64()
	}
	return s
}
