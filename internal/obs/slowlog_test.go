package obs

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestSlowLogShouldCapture(t *testing.T) {
	sl := NewSlowLog(8)
	// Latency trigger disabled by default on a fresh log.
	if sl.ShouldCapture(time.Hour, false) {
		t.Fatal("captured on latency with the trigger disabled")
	}
	if !sl.ShouldCapture(0, true) {
		t.Fatal("misestimate must always capture")
	}
	sl.SetLatencyThreshold(10 * time.Millisecond)
	if sl.LatencyThreshold() != 10*time.Millisecond {
		t.Fatalf("threshold = %v", sl.LatencyThreshold())
	}
	if sl.ShouldCapture(9*time.Millisecond, false) {
		t.Fatal("captured under the threshold")
	}
	if !sl.ShouldCapture(10*time.Millisecond, false) {
		t.Fatal("did not capture at the threshold")
	}
}

// Capture owns the reason string and renders an entry only for a query
// that qualifies.
func TestSlowLogCaptureReasons(t *testing.T) {
	sl := NewSlowLog(8)
	sl.SetLatencyThreshold(10 * time.Millisecond)
	for _, c := range []struct {
		d      time.Duration
		mis    bool
		reason string
	}{
		{time.Millisecond, false, ""},
		{10 * time.Millisecond, false, "latency"},
		{time.Millisecond, true, "misestimate"},
		{time.Second, true, "latency+misestimate"},
	} {
		before := sl.Total()
		rendered := false
		sl.Capture(c.d, c.mis, func(q *SlowQuery) {
			rendered = true
			q.Query = "q"
		})
		if c.reason == "" {
			if rendered || sl.Total() != before {
				t.Fatalf("%v mis=%v: captured a query that does not qualify", c.d, c.mis)
			}
			continue
		}
		got := sl.Recent(1)[0]
		if got.Reason != c.reason || got.DurationNS != c.d.Nanoseconds() || got.Query != "q" || got.Time.IsZero() {
			t.Fatalf("%v mis=%v: entry %+v, want reason %q", c.d, c.mis, got, c.reason)
		}
	}
}

func TestSlowLogRingOrder(t *testing.T) {
	sl := NewSlowLog(4)
	for i := 0; i < 6; i++ {
		sl.Record(SlowQuery{Query: fmt.Sprintf("q%d", i)})
	}
	if sl.Total() != 6 {
		t.Fatalf("Total = %d", sl.Total())
	}
	recent := sl.Recent(0)
	if len(recent) != 4 {
		t.Fatalf("retained %d, want ring capacity 4", len(recent))
	}
	// Newest first; q0 and q1 were evicted.
	for i, want := range []string{"q5", "q4", "q3", "q2"} {
		if recent[i].Query != want {
			t.Fatalf("recent[%d] = %q, want %q", i, recent[i].Query, want)
		}
	}
	if got := sl.Recent(2); len(got) != 2 || got[0].Query != "q5" {
		t.Fatalf("Recent(2) = %+v", got)
	}
}

// TestSlowLogConcurrentOverflow floods a small ring from many goroutines;
// under -race this is the acceptance check that capture stays sound while
// the ring overflows: no lost counts, no torn entries, capacity respected.
func TestSlowLogConcurrentOverflow(t *testing.T) {
	const (
		goroutines = 8
		perG       = 100
		capacity   = 32
	)
	sl := NewSlowLog(capacity)
	sl.SetLatencyThreshold(time.Nanosecond)

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				d := time.Duration(i+1) * time.Microsecond
				if !sl.ShouldCapture(d, false) {
					t.Errorf("g%d: ShouldCapture refused %v", g, d)
					return
				}
				sl.Record(SlowQuery{
					Query:      fmt.Sprintf("g%d-q%d", g, i),
					DurationNS: d.Nanoseconds(),
					Reason:     "latency",
				})
			}
		}(g)
	}
	// Readers race the writers.
	stop := make(chan struct{})
	var rwg sync.WaitGroup
	rwg.Add(1)
	go func() {
		defer rwg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, q := range sl.Recent(0) {
				if q.Query == "" {
					t.Error("torn entry: empty query")
					return
				}
			}
		}
	}()
	wg.Wait()
	close(stop)
	rwg.Wait()

	if got := sl.Total(); got != goroutines*perG {
		t.Fatalf("Total = %d, want %d", got, goroutines*perG)
	}
	recent := sl.Recent(0)
	if len(recent) != capacity {
		t.Fatalf("retained %d entries, want %d", len(recent), capacity)
	}
	seen := make(map[string]bool, capacity)
	for _, q := range recent {
		if seen[q.Query] {
			t.Fatalf("duplicate retained entry %q", q.Query)
		}
		seen[q.Query] = true
	}
}
