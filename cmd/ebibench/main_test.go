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
