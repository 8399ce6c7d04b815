package obs

import (
	"testing"
	"time"
)

func TestRequestLogAggregatesByFamily(t *testing.T) {
	withTelemetry(t)
	l := NewRequestLog()
	for i := 0; i < 3; i++ {
		l.Observe(RequestSample{
			Family: "v = 1", Duration: 2 * time.Millisecond,
			CPUNanos: 1e6, AllocBytes: 100, AllocObjects: 4,
			ExcessVectors: 1, TraceID: 42,
		})
	}
	l.Observe(RequestSample{Family: "q IN {...}", Duration: 80 * time.Millisecond, Err: "boom"})

	rep := l.Snapshot()
	if len(rep.Families) != 2 {
		t.Fatalf("families = %d, want 2", len(rep.Families))
	}
	// Busiest first.
	f := rep.Families[0]
	if f.Family != "v = 1" || f.Count != 3 {
		t.Fatalf("top family = %+v", f)
	}
	if f.Errors != 0 || f.LastError != "" {
		t.Fatalf("error fields leaked into clean family: %+v", f)
	}
	if f.CPUSeconds != 3e-3 {
		t.Fatalf("cpu = %v, want 3ms", f.CPUSeconds)
	}
	if f.AllocBytes != 300 || f.AllocObjects != 12 || f.ExcessVectors != 3 {
		t.Fatalf("resource sums = %+v", f)
	}
	if f.LastTraceID != 42 {
		t.Fatalf("last trace = %d", f.LastTraceID)
	}
	// 2ms lands in the le=2.5e-3 bucket; the percentile reports its
	// upper bound.
	if f.P50Seconds != 2.5e-3 || f.P99Seconds != 2.5e-3 {
		t.Fatalf("percentiles = p50 %v p99 %v", f.P50Seconds, f.P99Seconds)
	}
	if f.RatePerSec <= 0 {
		t.Fatalf("rate = %v, want > 0 right after observing", f.RatePerSec)
	}

	g := rep.Families[1]
	if g.Errors != 1 || g.LastError != "boom" {
		t.Fatalf("error family = %+v", g)
	}
}

func TestRequestLogOverflowFoldsIntoOther(t *testing.T) {
	withTelemetry(t)
	l := NewRequestLog()
	for i := 0; i < MaxRequestFamilies+10; i++ {
		l.Observe(RequestSample{Family: familyName(i), Duration: time.Millisecond})
	}
	rep := l.Snapshot()
	if rep.OverflowSamples != 10 {
		t.Fatalf("overflow = %d, want 10", rep.OverflowSamples)
	}
	var other *FamilyReport
	for i := range rep.Families {
		if rep.Families[i].Family == overflowFamily {
			other = &rep.Families[i]
		}
	}
	if other == nil || other.Count != 10 {
		t.Fatalf("overflow family = %+v", other)
	}
}

func familyName(i int) string {
	// Distinct single-value families without fmt in the hot loop.
	b := []byte("fam-")
	for ; i > 0; i /= 10 {
		b = append(b, byte('0'+i%10))
	}
	return string(b)
}

func TestRequestLogDisabledAndNilSafe(t *testing.T) {
	Disable()
	l := NewRequestLog()
	l.Observe(RequestSample{Family: "x", Duration: time.Second})
	if rep := l.Snapshot(); len(rep.Families) != 0 {
		t.Fatalf("disabled Observe recorded: %+v", rep)
	}
	var nilLog *RequestLog
	nilLog.Observe(RequestSample{Family: "x"})
	nilLog.Reset()
	if rep := nilLog.Snapshot(); len(rep.Families) != 0 {
		t.Fatal("nil log snapshot non-empty")
	}
}

func TestBucketPercentileInfClampsToLargestFiniteBound(t *testing.T) {
	buckets := make([]uint64, len(LatencyBuckets)+1)
	buckets[len(buckets)-1] = 5 // everything in +Inf
	got := bucketPercentile(LatencyBuckets, buckets, 5, 0.5)
	if want := LatencyBuckets[len(LatencyBuckets)-1]; got != want {
		t.Fatalf("percentile = %v, want clamp to %v", got, want)
	}
}

// TestRequestPercentileIsNearestRank pins one percentile rule for both
// views: /debug/requests and the scraper's interval _p50 rank the same
// three observations at ceil(0.5*3) = 2, the 10ms bucket.
func TestRequestPercentileIsNearestRank(t *testing.T) {
	withTelemetry(t)
	l := NewRequestLog()
	s, reg := newTestScraper(t, TimeSeriesConfig{})
	h := reg.Histogram("rq_seconds", "", nil)
	for _, d := range []time.Duration{time.Millisecond, 10 * time.Millisecond, 10 * time.Millisecond} {
		l.Observe(RequestSample{Family: "v = 1", Duration: d})
		h.Observe(d.Seconds())
	}
	if got := l.Snapshot().Families[0].P50Seconds; got != 0.01 {
		t.Errorf("/debug/requests p50 = %v, want 0.01", got)
	}
	if got := s.ScrapeOnce().Values["rq_seconds_p50"]; got != 0.01 {
		t.Errorf("scraper interval p50 = %v, want 0.01", got)
	}
}
