package drift

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/iostat"
)

func TestKeyNormalization(t *testing.T) {
	if Key([]int{3, 1, 2}) != Key([]int{2, 3, 1}) {
		t.Fatal("key is order-sensitive")
	}
	if Key([]string{"b"}) != "b" || Key([]int{1, 2}) != "1,2" {
		t.Fatalf("keys = %q, %q", Key([]string{"b"}), Key([]int{1, 2}))
	}
}

func TestMetricSuffix(t *testing.T) {
	for in, want := range map[string]string{
		"fact.company": "fact_company",
		"Sales $$ EU":  "sales_eu",
		"":             "index",
		"___":          "index",
	} {
		if got := MetricSuffix(in); got != want {
			t.Errorf("MetricSuffix(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestRecorderScoreAndWorkload(t *testing.T) {
	r := NewRecorder[int]("rec-test-score", 8, 4)
	st := func(v int) iostat.Stats { return iostat.Stats{VectorsRead: v} }

	// Perfect evaluations: actual == minimum, score 0.
	r.ObserveSelection([]int{1}, st(2), 2)
	r.ObserveSelection([]int{2}, st(2), 2)
	if s := r.Score(); s != 0 {
		t.Fatalf("score = %v, want 0", s)
	}
	// Two decayed evaluations: window holds (0,2)(0,2)(2,3)(2,3),
	// score = 4/10.
	r.ObserveSelection([]int{3}, st(3), 1)
	r.ObserveSelection([]int{3}, st(3), 1)
	if s := r.Score(); s != 0.4 {
		t.Fatalf("score = %v, want 0.4", s)
	}
	// Window slides: two more decayed evaluations push the perfect
	// ones out entirely -> score = 8/12.
	r.ObserveSelection([]int{3}, st(3), 1)
	r.ObserveSelection([]int{3}, st(3), 1)
	if s := r.Score(); s < 0.66 || s > 0.67 {
		t.Fatalf("score = %v, want 2/3", s)
	}

	if r.Observed() != 6 {
		t.Fatalf("Observed = %d", r.Observed())
	}
	preds, weights := r.Workload(2)
	if len(preds) != 1 || len(weights) != 1 || weights[0] != 4 || Key(preds[0]) != "3" {
		t.Fatalf("Workload(2) = %v, %v", preds, weights)
	}
	preds, weights = r.Workload(0)
	if len(preds) != 3 {
		t.Fatalf("Workload(0) kept %d predicates", len(preds))
	}
	// Heaviest first, mirroring the sketch snapshot order.
	if weights[0] != 4 {
		t.Fatalf("weights = %v", weights)
	}

	r.Reset()
	if r.Observed() != 0 || r.Score() != 0 {
		t.Fatal("Reset left state behind")
	}
	if preds, _ := r.Workload(0); len(preds) != 0 {
		t.Fatal("Reset left workload behind")
	}
}

func TestRecorderSideTablePrunedWithEvictions(t *testing.T) {
	r := NewRecorder[int]("rec-test-prune", 4, 8)
	for i := 0; i < 100; i++ {
		r.ObserveSelection([]int{i}, iostat.Stats{VectorsRead: 1}, 1)
	}
	r.mu.Lock()
	n := len(r.values)
	r.mu.Unlock()
	if n > 4 {
		t.Fatalf("side table holds %d entries, sketch capacity 4", n)
	}
	preds, _ := r.Workload(0)
	if len(preds) == 0 || len(preds) > 4 {
		t.Fatalf("workload has %d predicates", len(preds))
	}
}

// TestRecorderConcurrentQueries drives a real index from parallel
// goroutines with the recorder installed; under -race this is the
// acceptance check that the sketch and drift gauges stay sound under
// concurrent queries.
func TestRecorderConcurrentQueries(t *testing.T) {
	column := make([]int, 512)
	for i := range column {
		column[i] = i % 16
	}
	s, err := core.BuildSynced(column, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRecorder[int]("rec-test-concurrent", 16, 64)
	s.SetSelectionObserver(r)

	const goroutines = 8
	const perG = 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				switch i % 3 {
				case 0:
					_, _ = s.View().Eq(i % 16)
				case 1:
					_, _ = s.In([]int{i % 16, (i + 1) % 16})
				default:
					_, _ = s.View().NotIn([]int{0, 1, 2, 3})
				}
			}
		}(g)
	}
	// A reader races the writers through every accessor.
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
			_ = r.Score()
			_, _ = r.Workload(0)
			_ = r.TopPredicates(5)
		}
	}()
	wg.Wait()
	close(stop)
	rwg.Wait()

	if got, want := r.Observed(), uint64(goroutines*perG); got != want {
		t.Fatalf("Observed = %d, want %d", got, want)
	}
	for _, e := range r.TopPredicates(0) {
		if e.Key == "" {
			t.Fatal("torn sketch entry")
		}
	}
	if s := r.Score(); s < 0 || s > 1 {
		t.Fatalf("score %v out of [0,1]", s)
	}
	s.SetSelectionObserver(nil)
	_ = fmt.Sprint(r.Name())
}
