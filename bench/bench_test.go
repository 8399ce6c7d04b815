package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"

	"repro/internal/query"
)

// declared is the metric part of BENCHMARK.json.
type declared struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// tiny is a smoke-test run: 20k rows, 50 queries.
func tiny(workload string, seed int64, trace bool) runConfig {
	return runConfig{Workload: workload, Seed: seed, Seconds: 0.5, Trace: trace,
		Rows: 20_000, MaxQueries: 50, Setups: 1, TraceQueries: 50}
}

// TestSmoke runs every declared workload untraced and traced at tiny size:
// each emits every declared metric with its unit, answers match the scan
// reference, and the traced decomposition matches the plain evaluation.
func TestSmoke(t *testing.T) {
	d := readDeclared(t)
	if len(d.Workloads) != 4 {
		t.Fatalf("BENCHMARK.json declares %d workloads, want 4", len(d.Workloads))
	}
	for _, w := range d.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			res, _, err := run(tiny(w.Name, 1, false))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("untraced run: correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
			}
			for _, m := range d.EndToEnd {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || got.Value <= 0 {
					t.Errorf("end-to-end %s: got %+v (present %v), want a positive value in %s", m.Name, got, ok, m.Unit)
				}
			}
			if len(res.Metrics) != len(d.EndToEnd) {
				t.Errorf("untraced run printed %d metrics, BENCHMARK.json declares %d", len(res.Metrics), len(d.EndToEnd))
			}

			res, _, err = run(tiny(w.Name, 1, true))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("traced decomposition differs from the plain evaluation on %d of %d queries", res.Failed, res.Attempted)
			}
			for _, m := range d.PerLayer {
				if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("per-layer %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
				}
			}
			if len(res.Metrics) != len(d.PerLayer) {
				t.Errorf("traced run printed %d metrics, BENCHMARK.json declares %d", len(res.Metrics), len(d.PerLayer))
			}
		})
	}
}

func firstQueries(workload string, seed int64, n int) []string {
	cfg := starOf(20_000)
	var next func() query.Predicate
	if workload == "ingest" {
		next = ingestReads(rng(seed, 1), cfg)
	} else {
		_, next = readWorkloads[workload].queries(seed, cfg)
	}
	out := make([]string, n)
	for i := range out {
		out[i] = next().String()
	}
	return out
}

// TestDeterminism checks that inputs are a function of the seed: the same
// seed gives the same query list and the same vectors_per_query and
// index_bytes_per_row, another seed a different list.
func TestDeterminism(t *testing.T) {
	for _, w := range []string{"dashboard", "adhoc", "wah-sorted", "ingest"} {
		a, b, c := firstQueries(w, 1, 200), firstQueries(w, 1, 200), firstQueries(w, 2, 200)
		if !slices.Equal(a, b) {
			t.Errorf("%s: seed 1 gave two different query lists", w)
		}
		if slices.Equal(a, c) {
			t.Errorf("%s: seeds 1 and 2 gave the same query list", w)
		}
		if w == "ingest" {
			continue // its costs depend on how the writer interleaves with reads
		}
		r1, _, err := run(tiny(w, 1, false))
		if err != nil {
			t.Fatal(err)
		}
		r2, _, err := run(tiny(w, 1, false))
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []string{"vectors_per_query", "index_bytes_per_row"} {
			if r1.Metrics[m] != r2.Metrics[m] {
				t.Errorf("%s: %s differs between two runs of seed 1: %v vs %v", w, m, r1.Metrics[m], r2.Metrics[m])
			}
		}
	}
}
