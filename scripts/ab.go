//go:build ignore

// Command ab runs the ebiload benchmark in alternating pairs of a base and
// a head binary and compares the two sides per workload and end-to-end
// metric. scripts/ab.sh builds both binaries and runs it from the root of a
// checkout:
//
//	go run scripts/ab.go -base BIN -head BIN [-pairs 10] [-workloads W1,W2] [-seconds S] [-seed S]
//
// Pair i runs every workload on seed S+i, the base first in even pairs and
// the head first in odd ones; S defaults to one drawn from the clock. The
// workloads, the window, and each metric's direction and bound default to
// or come from BENCHMARK.json. Each run's output is kept in
// .bench_build/ab-runs/. For every workload it prints the failed operations
// of each side against those attempted, and for every end-to-end metric
// each side's median and quartiles (linear interpolation between order
// statistics), the relative change of the medians, the pairs the head won
// out of all pairs run (ties, and pairs where either run printed no
// result, count as lost) and a verdict:
//
//	worse       the head's median is worse than the base's by more than the bound
//	gain        the head won at least 9 in 10 pairs, its median is better by more
//	            than the base's interquartile range, it failed no more operations
//	            than the base and every run printed a result
//	no gain     the first two hold but not the last two; the reason is printed
//	unresolved  none of these, and either side's interquartile range exceeds the
//	            bound relative to its median, unless every head run beats every
//	            base run
//	ok          none of these
//
// It ends with three traced runs (--trace 1) per side and workload, on the
// first three pairs' seeds (fewer with fewer pairs) and in those pairs'
// alternating order, and prints each BENCHMARK.json per-layer metric of the
// two sides side by side as the median of its runs with their minimum and
// maximum, and the relative change of the medians: the layer evidence for a
// claim. One traced run per side cannot tell a layer's change from a run's
// scatter; three cannot resolve a small one either, so that table has no
// verdict. A traced replay stops at the window, so with short windows the
// two sides may replay different numbers of queries (compare
// *.calls_per_query).
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"text/tabwriter"
	"time"
)

// benchmark is what ab reads of BENCHMARK.json.
type benchmark struct {
	RunSeconds float64 `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
	} `json:"per_layer"`
}

// runsDir keeps each run's output.
const runsDir = ".bench_build/ab-runs"

// result is ebiload's last output line; nil for a run that printed none.
type result struct {
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func main() {
	baseBin := flag.String("base", "", "ebiload binary built from the base revision")
	headBin := flag.String("head", "", "ebiload binary built from the working tree")
	pairs := flag.Int("pairs", 10, "alternating pairs to run")
	workloads := flag.String("workloads", "", "comma-separated workloads (default: every workload of the benchmark)")
	seconds := flag.Float64("seconds", 0, "measured window per run (default: the benchmark's run_seconds)")
	seed := flag.Int64("seed", time.Now().Unix()%100000, "seed of the first pair; pair i uses seed+i")
	flag.Parse()
	if *baseBin == "" || *headBin == "" || *pairs < 1 {
		fmt.Fprintln(os.Stderr, "ab: -base and -head are required and -pairs must be positive")
		os.Exit(2)
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fatal(err)
	}
	var bm benchmark
	if err := json.Unmarshal(raw, &bm); err != nil {
		fatal(fmt.Errorf("BENCHMARK.json: %w", err))
	}
	var names []string
	if *workloads != "" {
		names = strings.Split(*workloads, ",")
	} else {
		for _, w := range bm.Workloads {
			names = append(names, w.Name)
		}
	}
	if *seconds == 0 {
		*seconds = bm.RunSeconds
	}
	if err := os.MkdirAll(runsDir, 0o755); err != nil {
		fatal(err)
	}

	fmt.Printf("%d pairs, workloads %s, %g s windows, seeds %d..%d\n",
		*pairs, strings.Join(names, ","), *seconds, *seed, *seed+int64(*pairs)-1)
	bins := map[string]string{"base": *baseBin, "head": *headBin}
	// res[workload][side][pair]
	res := map[string]map[string][]*result{}
	for _, w := range names {
		res[w] = map[string][]*result{"base": make([]*result, *pairs), "head": make([]*result, *pairs)}
	}
	for i := 0; i < *pairs; i++ {
		for _, w := range names {
			for _, side := range order(i) {
				out := filepath.Join(runsDir, fmt.Sprintf("%s.%d.%s.txt", w, i, side))
				res[w][side][i] = runOnce(bins[side], w, *seed+int64(i), *seconds, 0, out)
			}
		}
		fmt.Fprintf(os.Stderr, "pair %d/%d done\n", i+1, *pairs)
	}

	for _, w := range names {
		b, h := tally(res[w]["base"]), tally(res[w]["head"])
		fmt.Println()
		fmt.Printf("%s: failed base %s, head %s\n", w, b, h)
		// noGain says why a gain on this workload is not evidence.
		var noGain string
		switch {
		case b.lost+h.lost > 0:
			noGain = fmt.Sprintf("no gain: %d base and %d head runs printed no result", b.lost, h.lost)
		case h.failed > b.failed:
			noGain = fmt.Sprintf("no gain: head failed %d operations, base %d", h.failed, b.failed)
		}
		tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
		fmt.Fprintln(tw, "metric\tbase median [q1 q3]\thead median [q1 q3]\tchange\twins\tbound\tverdict")
		for _, m := range bm.EndToEnd {
			var base, head []float64
			wins := 0 // pairs where both runs printed the metric and the head's is better
			for i := 0; i < *pairs; i++ {
				b, okB := value(res[w]["base"][i], m.Name)
				h, okH := value(res[w]["head"][i], m.Name)
				if okB {
					base = append(base, b)
				}
				if okH {
					head = append(head, h)
				}
				if okB && okH && better(m.Better, h, b) > 0 {
					wins++
				}
			}
			if len(base) == 0 || len(head) == 0 {
				fmt.Fprintf(tw, "%s\tno runs\t\t\t\t\t\n", m.Name)
				continue
			}
			bq, hq := quartiles(base), quartiles(head)
			gain := better(m.Better, hq[1], bq[1]) // > 0 where the head's median is better
			verdict := "ok"
			switch {
			case -gain > m.Bound*math.Abs(bq[1]):
				verdict = "worse"
			case 10*wins >= 9**pairs && gain > bq[2]-bq[0]:
				verdict = "gain"
				if noGain != "" {
					verdict = noGain
				}
			case (bq[2]-bq[0] > m.Bound*math.Abs(bq[1]) || hq[2]-hq[0] > m.Bound*math.Abs(hq[1])) &&
				!allBetter(m.Better, head, base):
				verdict = "unresolved"
			}
			fmt.Fprintf(tw, "%s\t%.4g [%.4g %.4g]\t%.4g [%.4g %.4g]\t%+.1f%%\t%d/%d\t%g\t%s\n",
				m.Name, bq[1], bq[0], bq[2], hq[1], hq[0], hq[2],
				100*(hq[1]-bq[1])/bq[1], wins, *pairs, m.Bound, verdict)
		}
		tw.Flush()
	}

	nt := min(3, *pairs)
	traced := map[string]map[string][]*result{} // traced[workload][side][pair]
	for _, w := range names {
		traced[w] = map[string][]*result{"base": make([]*result, nt), "head": make([]*result, nt)}
	}
	for i := 0; i < nt; i++ {
		for _, w := range names {
			for _, side := range order(i) {
				out := filepath.Join(runsDir, fmt.Sprintf("%s.trace.%d.%s.txt", w, i, side))
				traced[w][side][i] = runOnce(bins[side], w, *seed+int64(i), *seconds, 1, out)
			}
		}
	}
	for _, w := range names {
		fmt.Println()
		fmt.Printf("%s traced, seeds %d..%d:\n", w, *seed, *seed+int64(nt)-1)
		tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
		fmt.Fprintln(tw, "metric\tbase median [min max]\thead median [min max]\tchange")
		for _, m := range bm.PerLayer {
			var b, h []float64
			for i := 0; i < nt; i++ {
				if v, ok := value(traced[w]["base"][i], m.Name); ok {
					b = append(b, v)
				}
				if v, ok := value(traced[w]["head"][i], m.Name); ok {
					h = append(h, v)
				}
			}
			switch {
			case len(b) == 0 && len(h) == 0:
				continue
			case len(b) == 0 || len(h) == 0 || median(b) == 0:
				fmt.Fprintf(tw, "%s\t%s\t%s\t\n", m.Name, spread(b), spread(h))
			default:
				fmt.Fprintf(tw, "%s\t%s\t%s\t%+.1f%%\n", m.Name, spread(b), spread(h), 100*(median(h)-median(b))/median(b))
			}
		}
		tw.Flush()
	}
}

// order returns the order in which pair i runs the two sides: the base
// first in even pairs, the head first in odd ones.
func order(i int) []string {
	if i%2 == 1 {
		return []string{"head", "base"}
	}
	return []string{"base", "head"}
}

// median returns the median of xs.
func median(xs []float64) float64 { return quartiles(xs)[1] }

// spread formats traced values as their median with their minimum and
// maximum, or "-" when no run reported the metric.
func spread(xs []float64) string {
	if len(xs) == 0 {
		return "-"
	}
	lo, hi := slices.Min(xs), slices.Max(xs)
	return fmt.Sprintf("%.4g [%.4g %.4g]", median(xs), lo, hi)
}

// runOnce runs one benchmark invocation at the given --trace level, keeps
// its output in out and returns its result line, or nil when it printed
// none.
func runOnce(bin, workload string, seed int64, seconds float64, trace int, out string) *result {
	cmd := exec.Command(bin, "--workload", workload, "--seed", fmt.Sprint(seed),
		"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(trace))
	var buf bytes.Buffer
	cmd.Stdout, cmd.Stderr = &buf, &buf
	// A run with wrong answers exits non-zero and still prints its result
	// line, whose failed field counts them.
	_ = cmd.Run()
	if err := os.WriteFile(out, buf.Bytes(), 0o644); err != nil {
		fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		fmt.Fprintf(os.Stderr, "ab: %s printed no result line; see %s\n", bin, out)
		return nil
	}
	return &r
}

// totals is one side's operations summed over its runs, and the runs that
// printed no result.
type totals struct{ failed, attempted, lost int }

func tally(rs []*result) totals {
	var s totals
	for _, r := range rs {
		if r == nil {
			s.lost++
			continue
		}
		s.failed, s.attempted = s.failed+r.Failed, s.attempted+r.Attempted
	}
	return s
}

func (s totals) String() string {
	desc := fmt.Sprintf("%d of %d", s.failed, s.attempted)
	if s.lost > 0 {
		desc += fmt.Sprintf(" (%d runs lost)", s.lost)
	}
	return desc
}

func value(r *result, name string) (float64, bool) {
	if r == nil {
		return 0, false
	}
	m, ok := r.Metrics[name]
	return m.Value, ok
}

// better returns how much better head is than base: positive when head is
// better in the metric's direction.
func better(direction string, head, base float64) float64 {
	if direction == "higher" {
		return head - base
	}
	return base - head
}

// allBetter reports whether every head run is better than every base run.
func allBetter(direction string, head, base []float64) bool {
	for _, h := range head {
		for _, b := range base {
			if better(direction, h, b) <= 0 {
				return false
			}
		}
	}
	return true
}

// quartiles returns the first quartile, the median and the third quartile,
// interpolating linearly between order statistics.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		pos := p * float64(len(s)-1)
		lo := int(pos)
		if lo+1 >= len(s) {
			return s[lo]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return [3]float64{at(0.25), at(0.5), at(0.75)}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ab:", err)
	os.Exit(1)
}
