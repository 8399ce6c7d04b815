package main

import "testing"

// TestExperiments runs every experiment on a small table. Each one checks
// its own results (row and stats parity between routes, reorder map-back,
// the drift planner against the offline plan, measured re-encoding costs
// against the plan's, a clean audit) and returns an error on a divergence.
func TestExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every measured experiment")
	}
	cfg := config{n: 20000, seed: 1, page: 4096, degree: 512}
	for _, e := range experiments {
		t.Run(e.name, func(t *testing.T) {
			if err := e.run(cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestTimeModesInterleaves pins the timer's schedule: every mode runs
// benchIters times, in timeRounds rounds that each run one batch of every
// mode in turn.
func TestTimeModesInterleaves(t *testing.T) {
	var order []int
	modes := make([]func(), 3)
	for i := range modes {
		modes[i] = func() { order = append(order, i) }
	}
	if got := timeModes(modes...); len(got) != len(modes) {
		t.Fatalf("%d timings for %d modes", len(got), len(modes))
	}
	runs := make([]int, len(modes))
	var batches []int // the mode of each maximal batch of consecutive runs
	for n, i := range order {
		runs[i]++
		if n == 0 || order[n-1] != i {
			batches = append(batches, i)
		}
	}
	for i, n := range runs {
		if n != benchIters {
			t.Fatalf("mode %d ran %d times, want %d", i, n, benchIters)
		}
	}
	if len(batches) != timeRounds*len(modes) {
		t.Fatalf("%d batches, want %d rounds of %d modes: %v", len(batches), timeRounds, len(modes), order)
	}
	for b, i := range batches {
		if i != b%len(modes) {
			t.Fatalf("batch %d ran mode %d, want %d: %v", b, i, b%len(modes), order)
		}
	}
}
