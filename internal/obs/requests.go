package obs

import (
	"math"
	"sort"
	"sync"
	"time"
)

// RequestSample is one finished query as the query layer reports it to
// the request log: the normalized predicate family plus the root span's
// wall/CPU/allocation totals and the planner's excess-vector count.
type RequestSample struct {
	Family        string
	Duration      time.Duration
	CPUNanos      int64
	AllocBytes    uint64
	AllocObjects  uint64
	ExcessVectors int
	TraceID       uint64
	Err           string
}

// rateWindowSeconds is the sliding window /debug/requests rates cover.
const rateWindowSeconds = 60

// MaxRequestFamilies bounds the per-family map; samples for new
// families beyond the cap fold into a synthetic "(other)" family so a
// high-cardinality workload cannot grow the log without bound.
const MaxRequestFamilies = 256

// overflowFamily collects samples once MaxRequestFamilies distinct
// keys exist.
const overflowFamily = "(other)"

// requestFamily accumulates one predicate family's live statistics.
type requestFamily struct {
	count, errors uint64
	buckets       []uint64 // per-bucket (non-cumulative) over LatencyBuckets, +Inf last
	sumDur        time.Duration
	sumCPU        time.Duration
	sumAllocBytes uint64
	sumAllocObjs  uint64
	sumExcess     int64
	lastTraceID   uint64
	lastErr       string
	lastSeen      time.Time

	// Per-second sample counts for the sliding rate window. Slot
	// i holds the count for the unix second secStamp[i]; stale slots
	// are ignored at read time and overwritten at write time.
	secCount [rateWindowSeconds]uint32
	secStamp [rateWindowSeconds]int64
}

// RequestLog groups finished queries by normalized predicate family —
// the x/net/trace "family" idea — and keeps live aggregates per family:
// count, error count, sliding-window rate, latency distribution, CPU,
// allocations, excess vector reads, and the last error with its trace
// ID. It backs the /debug/requests endpoint.
type RequestLog struct {
	mu       sync.Mutex
	families map[string]*requestFamily
	dropped  uint64 // samples folded into overflowFamily
}

// NewRequestLog returns an empty request log.
func NewRequestLog() *RequestLog {
	return &RequestLog{families: make(map[string]*requestFamily)}
}

var defaultRequests = NewRequestLog()

// DefaultRequests returns the process-wide request log that the query
// layer records into and that /debug/requests serves.
func DefaultRequests() *RequestLog { return defaultRequests }

// Observe folds one finished query into its family's aggregates. It is
// a no-op while telemetry is disabled.
func (l *RequestLog) Observe(s RequestSample) {
	if l == nil || !enabled.Load() {
		return
	}
	now := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	fam, ok := l.families[s.Family]
	if !ok {
		if len(l.families) >= MaxRequestFamilies {
			l.dropped++
			if fam, ok = l.families[overflowFamily]; !ok {
				fam = &requestFamily{buckets: make([]uint64, len(LatencyBuckets)+1)}
				l.families[overflowFamily] = fam
			}
		} else {
			fam = &requestFamily{buckets: make([]uint64, len(LatencyBuckets)+1)}
			l.families[s.Family] = fam
		}
	}
	fam.count++
	if s.Err != "" {
		fam.errors++
		fam.lastErr = s.Err
	}
	sec := s.Duration.Seconds()
	fam.buckets[sort.SearchFloat64s(LatencyBuckets, sec)]++
	fam.sumDur += s.Duration
	fam.sumCPU += time.Duration(s.CPUNanos)
	fam.sumAllocBytes += s.AllocBytes
	fam.sumAllocObjs += s.AllocObjects
	fam.sumExcess += int64(s.ExcessVectors)
	if s.TraceID != 0 {
		fam.lastTraceID = s.TraceID
	}
	fam.lastSeen = now
	slot := now.Unix() % rateWindowSeconds
	if fam.secStamp[slot] != now.Unix() {
		fam.secStamp[slot] = now.Unix()
		fam.secCount[slot] = 0
	}
	fam.secCount[slot]++
}

// FamilyReport is one family's rendered aggregate in /debug/requests.
type FamilyReport struct {
	Family        string    `json:"family"`
	Count         uint64    `json:"count"`
	Errors        uint64    `json:"errors,omitempty"`
	RatePerSec    float64   `json:"rate_per_sec"`
	MeanSeconds   float64   `json:"mean_seconds"`
	P50Seconds    float64   `json:"p50_seconds"`
	P90Seconds    float64   `json:"p90_seconds"`
	P99Seconds    float64   `json:"p99_seconds"`
	CPUSeconds    float64   `json:"cpu_seconds"`
	AllocBytes    uint64    `json:"alloc_bytes"`
	AllocObjects  uint64    `json:"allocs"`
	ExcessVectors int64     `json:"excess_vectors"`
	LastTraceID   uint64    `json:"last_trace_id,omitempty"`
	LastError     string    `json:"last_error,omitempty"`
	LastSeen      time.Time `json:"last_seen"`
}

// RequestReport is the /debug/requests payload. CPUTimeSupported tells
// renderers whether the cpu_seconds figures mean anything on this
// platform — false (non-linux) means "n/a", not "zero CPU".
type RequestReport struct {
	Families         []FamilyReport `json:"families"`
	OverflowSamples  uint64         `json:"overflow_samples,omitempty"`
	CPUTimeSupported bool           `json:"cpu_time_supported"`
}

// Snapshot renders every family, busiest first.
func (l *RequestLog) Snapshot() RequestReport {
	if l == nil {
		return RequestReport{}
	}
	now := time.Now().Unix()
	l.mu.Lock()
	defer l.mu.Unlock()
	rep := RequestReport{
		Families:         make([]FamilyReport, 0, len(l.families)),
		OverflowSamples:  l.dropped,
		CPUTimeSupported: CPUTimeSupported,
	}
	for name, fam := range l.families {
		fr := FamilyReport{
			Family:        name,
			Count:         fam.count,
			Errors:        fam.errors,
			MeanSeconds:   fam.sumDur.Seconds() / float64(fam.count),
			P50Seconds:    bucketPercentile(LatencyBuckets, fam.buckets, fam.count, 0.50),
			P90Seconds:    bucketPercentile(LatencyBuckets, fam.buckets, fam.count, 0.90),
			P99Seconds:    bucketPercentile(LatencyBuckets, fam.buckets, fam.count, 0.99),
			CPUSeconds:    fam.sumCPU.Seconds(),
			AllocBytes:    fam.sumAllocBytes,
			AllocObjects:  fam.sumAllocObjs,
			ExcessVectors: fam.sumExcess,
			LastTraceID:   fam.lastTraceID,
			LastError:     fam.lastErr,
			LastSeen:      fam.lastSeen,
		}
		var recent uint64
		for i, stamp := range fam.secStamp {
			if stamp != 0 && now-stamp < rateWindowSeconds {
				recent += uint64(fam.secCount[i])
			}
		}
		fr.RatePerSec = float64(recent) / rateWindowSeconds
		rep.Families = append(rep.Families, fr)
	}
	sort.Slice(rep.Families, func(i, j int) bool {
		if rep.Families[i].Count != rep.Families[j].Count {
			return rep.Families[i].Count > rep.Families[j].Count
		}
		return rep.Families[i].Family < rep.Families[j].Family
	})
	return rep
}

// Reset drops every family; tests use it for isolation.
func (l *RequestLog) Reset() {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.families = make(map[string]*requestFamily)
	l.dropped = 0
}

// bucketPercentile estimates the q-th percentile of total observations
// from per-bucket (non-cumulative) counts over bounds, +Inf last: the
// upper bound of the bucket holding the nearest-rank sample, rank
// ceil(q*total) clamped to [1, total]. Samples in the +Inf bucket clamp
// to the largest finite bound, so the estimate stays JSON-representable
// — it is then a lower bound rather than an upper one. 0 when there are
// no observations. /debug/requests and the scraper's interval
// percentiles both use it.
func bucketPercentile(bounds []float64, counts []uint64, total uint64, q float64) float64 {
	if total == 0 || len(bounds) == 0 {
		return 0
	}
	rank := min(max(uint64(math.Ceil(q*float64(total))), 1), total)
	var cum uint64
	for i, c := range counts {
		cum += c
		if cum >= rank {
			if i < len(bounds) {
				return bounds[i]
			}
			break
		}
	}
	return bounds[len(bounds)-1]
}
