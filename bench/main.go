// Command ebiload is the repository's end-to-end benchmark. It builds one
// of four workloads over the star schema from a seed, drives the system
// only through its public packages, checks the answers against a
// scan-only executor, and prints every metric by name and unit, ending
// with one JSON line:
//
//	go run . --workload dashboard --seed 1 --seconds 10 --trace 0
//
// With --trace 1 it instead replays the start of the same query sequence
// three ways — decomposed layer by layer, plain, and plain with telemetry
// on — and prints the per-layer metrics. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// units lists every metric the benchmark reports with its unit: the
// end-to-end metrics of untraced runs first, then the per-layer metrics of
// traced runs. BENCHMARK.json declares the same names and units.
var units = map[string]string{
	"setup_s":             "s",
	"query_p50_ms":        "ms",
	"query_p99_ms":        "ms",
	"query_qps":           "1/s",
	"vectors_per_query":   "count",
	"index_bytes_per_row": "B",
	"heap_mb":             "MB",

	"trace.ms_per_query":                  "ms",
	"trace.sum_ratio":                     "ratio",
	"trace.overhead_ratio":                "ratio",
	"obs.overhead_ratio":                  "ratio",
	"query.plan.share":                    "ratio",
	"query.plan.misestimate_share":        "ratio",
	"query.plan.excess_vectors_per_query": "count",
	"query.leaf.ms_per_query":             "ms",
	"query.leaf.calls_per_query":          "count",
	"core.reduce.share":                   "ratio",
	"core.reduce.calls_per_query":         "count",
	"core.reduce.cubes_per_call":          "count",
	"core.reduce.repeat_share":            "ratio",
	"boolmin.compile.share":               "ratio",
	"boolmin.kernel.share":                "ratio",
	"boolmin.kernel.vectors_per_call":     "count",
	"boolmin.kernel.gb_per_s":             "GB/s",
	"core.eq.share":                       "ratio",
	"core.range.share":                    "ratio",
	"simplebitmap.leaf.share":             "ratio",
	"bitvec.combine.share":                "ratio",
	"bitvec.combine.ms_per_query":         "ms",
	"bitvec.combine.ops_per_query":        "count",
	"reorder.mapback.share":               "ratio",
	"runtime.allocs_per_query":            "count",
	"runtime.alloc_kb_per_query":          "KB",
	"runtime.gc_cpu_share":                "ratio",
	"core.append.p99_budget_share":        "ratio",
	"core.reencode.flip_share":            "ratio",
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) set(name string, v float64) {
	u, ok := units[name]
	if !ok {
		panic("unknown metric " + name)
	}
	m[name] = metric{Value: v, Unit: u}
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// runConfig is one invocation. The size fields are zero for the
// workloads' full size; the smoke test shrinks them.
type runConfig struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	Spans    string // traced runs: write spans here as JSON lines

	Rows         int // fact rows
	MaxQueries   int // read workloads: stop the measured loop after this many
	Setups       int // untraced runs: timed set-ups whose median is setup_s; 0 for the workload's own
	TraceQueries int // traced runs: queries replayed
}

// report holds the human-readable summary lines printed before the JSON:
// what a run measured beyond its metrics.
type report []string

func (r *report) add(format string, args ...any) { *r = append(*r, fmt.Sprintf(format, args...)) }

func run(cfg runConfig) (result, *report, error) {
	if cfg.Seconds <= 0 {
		return result{}, nil, fmt.Errorf("--seconds must be positive")
	}
	if cfg.TraceQueries == 0 {
		cfg.TraceQueries = 500
	}
	if cfg.Workload == "ingest" {
		return runIngest(cfg)
	}
	wl, ok := readWorkloads[cfg.Workload]
	if !ok {
		return result{}, nil, fmt.Errorf("unknown workload %q (want %s)", cfg.Workload, strings.Join(workloadNames(), ", "))
	}
	return runRead(cfg, wl)
}

func workloadNames() []string {
	names := []string{"ingest"}
	for n := range readWorkloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func main() {
	var cfg runConfig
	var trace int
	flag.StringVar(&cfg.Workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&cfg.Seed, "seed", 1, "seed every input is generated from")
	flag.Float64Var(&cfg.Seconds, "seconds", 10, "measured window in seconds (traced runs: replay time budget)")
	flag.IntVar(&trace, "trace", 0, "1: traced run printing per-layer metrics")
	flag.StringVar(&cfg.Spans, "spans", "", "traced runs: write spans to this file as JSON lines")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "ebiload: --trace takes 0 or 1")
		os.Exit(2)
	}
	cfg.Trace = trace == 1

	start := time.Now()
	res, rep, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ebiload:", err)
		os.Exit(1)
	}
	rep.add("total wall %.1f s", time.Since(start).Seconds())
	for _, l := range *rep {
		fmt.Println(l)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-40s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ebiload:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}
