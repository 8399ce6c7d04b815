// Command ebibench regenerates every table and figure of Wu & Buchmann,
// "Encoded Bitmap Indexing for Data Warehouses" (ICDE 1998), both from the
// paper's analytical model and from measured executions on synthetic data.
//
// Usage:
//
//	ebibench [flags] <experiment>
//
// The evidence for a speed claim is the ebiload benchmark in bench/, run
// as a same-host A/B with `make ab` (see bench/README.md).
//
// Experiments:
//
//	fig9a        Figure 9(a): c_s vs c_e over δ, |A| = 50
//	fig9b        Figure 9(b): c_s vs c_e over δ, |A| = 1000
//	fig10        Figure 10: #bit vectors vs cardinality
//	worstcase    Section 3.2: area ratios and peak savings
//	btree-space  Section 2.1: bitmap vs B-tree space and the m<93 crossover
//	sparsity     Section 3.1: measured sparsity, simple vs encoded
//	mappings     Figure 3: proper vs improper encodings
//	groupset     Section 4: group-set index vector counts and a group-by
//	measure      empirical c / time vs δ for all index types
//	tpcd         the 17-type TPC-D-flavoured query mix across index types
//	maintenance  Section 2.2/3.1: build and append costs
//	compression  WAH compression: simple vs encoded vectors
//	reencode     future work: query-history mining + dynamic re-encoding
//	joins        Section 4: bitmapped join index on the star schema
//	pageio       footnote 4: page faults under a buffer cache
//	planner      cost-based access-path routing (the Figure 9 crossover)
//	advise       per-column index recommendations (Section 2.1/3 model)
//	rangebased   Section 4: Wu-Yu equal-population vs range-encoded EBI
//	parallel     segmented parallel execution: seq vs par latency
//	eval         fused single-pass evaluation: fused vs multi-pass baseline
//	reorder      row-reordering pass: WAH ratios and streamed-eval speed per heuristic
//	drift        live workload profiling + encoding-drift watcher
//	reencode-live  zero-downtime adaptive re-encoding through the epoch flip
//	audit        sampled shadow verification + stats conformance + planner
//	             calibration + sampling overhead (-fault injects corruptions
//	             and exits non-zero iff the audit plane detects them)
//	all          everything above
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"text/tabwriter"
	"time"

	"repro/internal/obs"
)

type config struct {
	n      int
	seed   int64
	page   int
	degree int
	serve  string
	fault  bool
}

// experiments lists every experiment in the order `all` runs them.
var experiments = []struct {
	name string
	run  func(config) error
}{
	{"fig9a", func(c config) error { return runFig9(c, 50) }},
	{"fig9b", func(c config) error { return runFig9(c, 1000) }},
	{"fig10", runFig10},
	{"worstcase", runWorstCase},
	{"btree-space", runBTreeSpace},
	{"sparsity", runSparsity},
	{"mappings", runMappings},
	{"groupset", runGroupSet},
	{"measure", runMeasure},
	{"tpcd", runTPCD},
	{"maintenance", runMaintenance},
	{"compression", runCompression},
	{"reencode", runReencode},
	{"joins", runJoins},
	{"pageio", runPageIO},
	{"planner", runPlanner},
	{"advise", runAdvise},
	{"rangebased", runRangeBased},
	{"parallel", runParallel},
	{"eval", runEval},
	{"reorder", runReorder},
	{"drift", runDrift},
	{"reencode-live", runReencodeLive},
	{"audit", runAudit},
}

func main() {
	cfg := config{}
	flag.IntVar(&cfg.n, "n", 200000, "synthetic table rows for measured experiments")
	flag.Int64Var(&cfg.seed, "seed", 1, "random seed")
	flag.IntVar(&cfg.page, "page", 4096, "page size for the B-tree cost model (paper: 4K)")
	flag.IntVar(&cfg.degree, "degree", 512, "B-tree degree (paper: 512)")
	flag.StringVar(&cfg.serve, "serve", "", "enable telemetry and serve /metrics, /debug/vars, /debug/pprof/* and /traces on this address (e.g. :8080); keeps serving after the experiment finishes")
	flag.BoolVar(&cfg.fault, "fault", false, "with the audit experiment: inject one result-bit flip and one stats-word corruption; exits NON-ZERO iff the audit plane detects both")
	flag.Parse()

	if cfg.serve != "" {
		ln, err := obs.Serve(cfg.serve)
		if err != nil {
			fmt.Fprintf(os.Stderr, "telemetry: %v\n", err)
			os.Exit(1)
		}
		defer ln.Close()
		// The flight-recorder ring rides along so profiles captured during
		// an experiment can be lined up against /debug/timeseries history.
		scraper := obs.NewScraper(obs.TimeSeriesConfig{})
		scraper.Start()
		defer scraper.Stop()
		fmt.Printf("telemetry on http://%s/ (metrics, traces, pprof, timeseries)\n", ln.Addr())
		defer func() {
			fmt.Printf("experiment done; still serving telemetry on http://%s/ — ^C to exit\n", ln.Addr())
			select {}
		}()
	}

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: ebibench [flags] <experiment> (see -h)")
		os.Exit(2)
	}
	exp := flag.Arg(0)
	if exp == "all" {
		for _, e := range experiments {
			fmt.Printf("\n============ %s ============\n", e.name)
			if err := e.run(cfg); err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", e.name, err)
				os.Exit(1)
			}
		}
		return
	}
	for _, e := range experiments {
		if e.name == exp {
			if err := e.run(cfg); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			return
		}
	}
	fmt.Fprintf(os.Stderr, "unknown experiment %q\n", exp)
	os.Exit(2)
}

// newTab returns a tab writer for aligned table output.
func newTab() *tabwriter.Writer {
	return tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
}

// benchIters is the per-measurement repetition count (odd, so the median
// is a real sample).
const benchIters = 25

// timeRounds is the number of rounds timeModes splits each mode's
// benchIters runs into; it divides benchIters.
const timeRounds = 5

// timing is one mode's median and p99 wall time.
type timing struct{ med, p99 int64 }

// timeModes times the modes of one comparison: benchIters runs each, in
// timeRounds rounds that each run every mode's batch in turn, so a drift
// in the host's or the heap's state lands on every mode alike. Timed one
// mode after another, reorder's lex-asc in8 speedup read 9.01x and 5.18x
// in two runs of the same code; interleaved, 4.81x and 5.02x.
func timeModes(modes ...func()) []timing {
	durs := make([][]int64, len(modes))
	for r := 0; r < timeRounds; r++ {
		for i, run := range modes {
			for j := 0; j < benchIters/timeRounds; j++ {
				t0 := time.Now()
				run()
				durs[i] = append(durs[i], time.Since(t0).Nanoseconds())
			}
		}
	}
	out := make([]timing, len(modes))
	for i := range out {
		out[i].med, out[i].p99 = medP99(durs[i])
	}
	return out
}

// medP99 sorts wall times and returns their median and p99.
func medP99(durs []int64) (medNS, p99NS int64) {
	slices.Sort(durs)
	return durs[len(durs)/2], durs[(len(durs)*99)/100]
}
