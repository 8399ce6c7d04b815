package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/bsi"
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/iostat"
	"repro/internal/query"
	"repro/internal/simplebitmap"
	"repro/internal/table"
	"repro/internal/workload"
)

// BenchSchema versions the BENCH_*.json format. Bump on incompatible
// changes; compare refuses to diff files with mismatched schemas.
const BenchSchema = "ebibench/v1"

// BenchFile is one snapshot of the paper-figure suite: measured
// latencies, vector reads, and compression ratios, plus enough build
// metadata to interpret it later.
type BenchFile struct {
	Schema      string            `json:"schema"`
	GoVersion   string            `json:"go_version"`
	GOOS        string            `json:"goos"`
	GOARCH      string            `json:"goarch"`
	MaxProcs    int               `json:"maxprocs,omitempty"`
	NumCPU      int               `json:"numcpu,omitempty"`
	CreatedUnix int64             `json:"created_unix"`
	Rows        int               `json:"rows"`
	Seed        int64             `json:"seed"`
	Experiments []BenchExperiment `json:"experiments"`
}

// BenchExperiment is one measured workload. Latencies are medians and
// p99s over Iters repetitions; the iostat fields are from a single
// representative run (they are deterministic for a fixed seed). Ratio
// carries dimensionless results (compression: compressed/raw).
type BenchExperiment struct {
	Name        string  `json:"name"`
	Iters       int     `json:"iters"`
	MedNS       int64   `json:"med_ns"`
	P99NS       int64   `json:"p99_ns"`
	VectorsRead int     `json:"vectors_read"`
	WordsRead   int     `json:"words_read"`
	BoolOps     int     `json:"bool_ops"`
	RowsScanned int     `json:"rows_scanned"`
	Ratio       float64 `json:"ratio,omitempty"`
}

// timeIt runs fn iters times and returns the median and p99 wall times
// plus the last run's stats.
func timeIt(iters int, fn func() iostat.Stats) (medNS, p99NS int64, st iostat.Stats) {
	if iters < 1 {
		iters = 1
	}
	durs := make([]int64, iters)
	for i := range durs {
		t0 := time.Now()
		st = fn()
		durs[i] = time.Since(t0).Nanoseconds()
	}
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	medNS = durs[len(durs)/2]
	p99NS = durs[(len(durs)*99)/100]
	return medNS, p99NS, st
}

// benchIters is the per-experiment repetition count (odd, so the median
// is a real sample).
const benchIters = 25

// runBenchSuite measures the standardized workload set and returns the
// snapshot.
func runBenchSuite(cfg config) (*BenchFile, error) {
	r := rand.New(rand.NewSource(cfg.seed))
	scfg := workload.StarConfig{Facts: cfg.n, Products: 200, SalesPoints: 12, Days: 730, MaxQty: 50}
	star, err := workload.BuildStar(r, scfg)
	if err != nil {
		return nil, err
	}

	bf := &BenchFile{
		Schema:      BenchSchema,
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		MaxProcs:    runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
		CreatedUnix: time.Now().Unix(),
		Rows:        cfg.n,
		Seed:        cfg.seed,
	}
	add := func(name string, iters int, med, p99 int64, st iostat.Stats, ratio float64) {
		bf.Experiments = append(bf.Experiments, BenchExperiment{
			Name: name, Iters: iters, MedNS: med, P99NS: p99,
			VectorsRead: st.VectorsRead, WordsRead: st.WordsRead,
			BoolOps: st.BoolOps, RowsScanned: st.RowsScanned,
			Ratio: ratio,
		})
	}

	// Build costs (median of 3 builds).
	toU64 := func(xs []int64) []uint64 {
		out := make([]uint64, len(xs))
		for i, v := range xs {
			out[i] = uint64(v)
		}
		return out
	}
	med, p99, _ := timeIt(3, func() iostat.Stats {
		if _, err := core.BuildOrdered(star.Day, nil, nil); err != nil {
			panic(err)
		}
		return iostat.Stats{}
	})
	add("build/encoded/day", 3, med, p99, iostat.Stats{}, 0)
	med, p99, _ = timeIt(3, func() iostat.Stats {
		if _, err := simplebitmap.Build(star.Day, nil); err != nil {
			panic(err)
		}
		return iostat.Stats{}
	})
	add("build/simple/day", 3, med, p99, iostat.Stats{}, 0)

	// Index-backed selections: encoded vs simple vs bit-sliced on the
	// DATE attribute (the paper's Figure 9 shapes: point, IN, wide range).
	ebi, err := core.BuildOrdered(star.Day, nil, nil)
	if err != nil {
		return nil, err
	}
	simple, err := simplebitmap.Build(star.Day, nil)
	if err != nil {
		return nil, err
	}
	slice := bsi.Build(toU64(star.Day))

	inVals := []int64{3, 17, 42, 99, 180, 365, 500, 729}
	sels := []struct {
		name string
		fn   func() iostat.Stats
	}{
		{"query/eq/encoded", func() iostat.Stats { _, st := ebi.Index().Eq(180); return st }},
		{"query/eq/simple", func() iostat.Stats { _, st := simple.Eq(180); return st }},
		{"query/eq/bsi", func() iostat.Stats { _, st := slice.Eq(180); return st }},
		{"query/in8/encoded", func() iostat.Stats { _, st := ebi.Index().In(inVals); return st }},
		{"query/in8/simple", func() iostat.Stats { _, st := simple.In(inVals); return st }},
		{"query/range180/encoded", func() iostat.Stats { _, st := ebi.Range(90, 269); return st }},
		{"query/range180/simple", func() iostat.Stats {
			var vals []int64
			for v := int64(90); v <= 269; v++ {
				vals = append(vals, v)
			}
			_, st := simple.In(vals)
			return st
		}},
		{"query/range180/bsi", func() iostat.Stats { _, st := slice.Range(90, 269); return st }},
	}
	for _, s := range sels {
		med, p99, st := timeIt(benchIters, s.fn)
		add(s.name, benchIters, med, p99, st, 0)
	}

	// A mixed AND/OR query through the planner — the end-to-end path the
	// EXPLAIN ANALYZE feature instruments.
	ex := query.NewExecutor(star.Schema.Fact)
	pl := query.NewPlanner(ex)
	if err := pl.AddPath("day", query.AccessPath{Name: "simple", Index: query.SimpleInt{Ix: simple}, Model: query.SimpleBitmapModel()}); err != nil {
		return nil, err
	}
	if err := pl.AddPath("day", query.AccessPath{Name: "ebi", Index: query.OrderedEBI{Ix: ebi}, Model: query.EBIModel(ebi.K())}); err != nil {
		return nil, err
	}
	prodIx, err := core.Build(star.Product, nil, nil)
	if err != nil {
		return nil, err
	}
	if err := pl.AddPath("product", query.AccessPath{Name: "ebi", Index: query.EBIInt{Ix: prodIx}, Model: query.EBIModel(prodIx.K())}); err != nil {
		return nil, err
	}
	mixed := query.And{Preds: []query.Predicate{
		query.Range{Col: "day", Lo: 90, Hi: 269},
		query.Or{Preds: []query.Predicate{
			query.Eq{Col: "product", Val: table.IntCell(7)},
			query.Eq{Col: "product", Val: table.IntCell(11)},
		}},
	}}
	med, p99, st := timeIt(benchIters, func() iostat.Stats {
		_, s, _, err := pl.Eval(mixed)
		if err != nil {
			panic(err)
		}
		return s
	})
	add("query/mixed-and-or/planner", benchIters, med, p99, st, 0)

	// Compression ratios (compressed/raw; < 1 compresses), simple vs
	// encoded vectors on the 12-value SALESPOINT attribute, per Section
	// 4's run-length remedy.
	var sRaw, sWah int
	spSimple, err := simplebitmap.Build(star.SalesPoint, nil)
	if err != nil {
		return nil, err
	}
	for _, v := range spSimple.Values() {
		vec := spSimple.VectorFor(v)
		sRaw += vec.SizeBytes()
		sWah += compress.Compress(vec).SizeBytes()
	}
	add("compression/simple/salespoint", 1, 0, 0, iostat.Stats{}, float64(sWah)/float64(sRaw))
	var eRaw, eWah int
	spEBI, err := core.Build(star.SalesPoint, nil, &core.Options[int64]{DisableVoidReserve: true})
	if err != nil {
		return nil, err
	}
	for i := 0; i < spEBI.K(); i++ {
		vec := spEBI.Vector(i)
		eRaw += vec.SizeBytes()
		eWah += compress.Compress(vec).SizeBytes()
	}
	add("compression/encoded/salespoint", 1, 0, 0, iostat.Stats{}, float64(eWah)/float64(eRaw))

	// Segmented parallel execution: sequential vs fork/join medians over a
	// multi-segment EBI. Interpret the speedup against the recorded
	// maxprocs/numcpu — on one core only parity is achievable.
	if err := benchParallelSection(cfg, bf); err != nil {
		return nil, err
	}
	// Fused single-pass evaluation vs the multi-pass baseline: the fused
	// entries' Ratio (fused/baseline medians) makes a fused-path
	// regression visible to `ebibench compare`.
	if err := benchEvalSection(cfg, bf); err != nil {
		return nil, err
	}
	// Row reordering: per-heuristic WAH ratios against the unsorted ~1.0
	// baseline plus streamed-eval medians; a ratio that creeps back toward
	// the unsorted baseline is a first-class regression in `ebibench
	// compare`.
	if err := benchReorderSection(cfg, bf); err != nil {
		return nil, err
	}
	// Audit-plane overhead: the mixed planner query at 0%/1%/10%
	// sampling; the rate entries' Ratio (rate/disabled medians) makes an
	// audit hot-path regression visible to `ebibench compare`.
	if err := benchAuditSection(cfg, bf); err != nil {
		return nil, err
	}
	// Zero-downtime adaptive re-encoding: hot-group cost before the
	// flip, the flip itself, and the delivered gain after it.
	if err := benchReencodeLiveSection(cfg, bf); err != nil {
		return nil, err
	}
	return bf, nil
}

// writeBenchJSON runs the suite, writes the snapshot to path, and
// re-reads it to prove the schema round-trips.
func writeBenchJSON(cfg config, path string) error {
	bf, err := runBenchSuite(cfg)
	if err != nil {
		return err
	}
	raw, err := json.MarshalIndent(bf, "", "  ")
	if err != nil {
		return err
	}
	raw = append(raw, '\n')
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return err
	}
	back, err := readBenchFile(path)
	if err != nil {
		return fmt.Errorf("bench json does not round-trip: %w", err)
	}
	fmt.Printf("wrote %s: %d experiments, schema %s (n=%d seed=%d)\n",
		path, len(back.Experiments), back.Schema, back.Rows, back.Seed)
	return nil
}

// readBenchFile loads and validates one BENCH_*.json.
func readBenchFile(path string) (*BenchFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf BenchFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if bf.Schema != BenchSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, bf.Schema, BenchSchema)
	}
	if len(bf.Experiments) == 0 {
		return nil, fmt.Errorf("%s: no experiments", path)
	}
	return &bf, nil
}

// benchNoiseFloorNS is the median below which a measured latency is
// scheduler-noise-dominated on small machines: percent comparisons of
// single-digit-microsecond medians flap run to run. Entries whose old
// AND new medians sit under the floor are still reported (marked
// noise-floor) but never fail compare. Deterministic entries — the
// compression ratios, which carry no latency — are always checked.
const benchNoiseFloorNS = 10_000

// compareBench diffs two snapshots and returns the regressions beyond
// tol (a fraction: 0.25 flags >25% slower medians, >25% more vector
// reads, or >25% worse ratios). Ratios are a first-class diff column:
// compression ratios (compressed/raw) and relative-speed ratios
// (mode/baseline medians) both grow when things get worse, so a
// reordered index that stops compressing or a fused path that loses its
// win fails compare exactly like a latency regression.
func compareBench(oldBF, newBF *BenchFile, tol float64) (report []string, regressions []string) {
	oldBy := make(map[string]BenchExperiment, len(oldBF.Experiments))
	for _, e := range oldBF.Experiments {
		oldBy[e.Name] = e
	}
	worse := func(oldV, newV float64) bool {
		return oldV > 0 && newV > oldV*(1+tol)
	}
	pct := func(oldV, newV float64) float64 {
		if oldV == 0 {
			return 0
		}
		return (newV/oldV - 1) * 100
	}
	for _, e := range newBF.Experiments {
		o, ok := oldBy[e.Name]
		if !ok {
			report = append(report, fmt.Sprintf("%s\tnew experiment", e.Name))
			continue
		}
		delete(oldBy, e.Name)
		var flags []string
		if worse(float64(o.MedNS), float64(e.MedNS)) {
			flags = append(flags, fmt.Sprintf("med %+.0f%%", pct(float64(o.MedNS), float64(e.MedNS))))
		}
		if worse(float64(o.VectorsRead), float64(e.VectorsRead)) {
			flags = append(flags, fmt.Sprintf("vectors %d -> %d", o.VectorsRead, e.VectorsRead))
		}
		if worse(o.Ratio, e.Ratio) {
			flags = append(flags, fmt.Sprintf("ratio %.3f -> %.3f (%+.0f%%)", o.Ratio, e.Ratio, pct(o.Ratio, e.Ratio)))
		}
		ratioCol := "-"
		if o.Ratio != 0 || e.Ratio != 0 {
			ratioCol = fmt.Sprintf("%.3f -> %.3f (%+.0f%%)", o.Ratio, e.Ratio, pct(o.Ratio, e.Ratio))
		}
		line := fmt.Sprintf("%s\tmed %s -> %s (%+.0f%%)\tvectors %d -> %d\tratio %s",
			e.Name,
			time.Duration(o.MedNS), time.Duration(e.MedNS), pct(float64(o.MedNS), float64(e.MedNS)),
			o.VectorsRead, e.VectorsRead, ratioCol)
		noisy := o.MedNS > 0 && e.MedNS > 0 &&
			o.MedNS < benchNoiseFloorNS && e.MedNS < benchNoiseFloorNS
		if len(flags) > 0 {
			if noisy {
				line += "\tnoise-floor"
			} else {
				regressions = append(regressions, fmt.Sprintf("%s: %v", e.Name, flags))
				line += "\tREGRESSION"
			}
		}
		report = append(report, line)
	}
	for name := range oldBy {
		report = append(report, fmt.Sprintf("%s\tmissing from new file", name))
		regressions = append(regressions, fmt.Sprintf("%s: experiment disappeared", name))
	}
	sort.Strings(report)
	sort.Strings(regressions)
	return report, regressions
}

// runCompare implements `ebibench compare OLD.json NEW.json`.
func runCompare(args []string, tol float64) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: ebibench [-tolerance F] compare OLD.json NEW.json")
	}
	oldBF, err := readBenchFile(args[0])
	if err != nil {
		return err
	}
	newBF, err := readBenchFile(args[1])
	if err != nil {
		return err
	}
	report, regressions := compareBench(oldBF, newBF, tol)
	w := newTab()
	fmt.Fprintf(w, "experiment\tdelta\t\n")
	for _, line := range report {
		fmt.Fprintln(w, line)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if len(regressions) > 0 {
		return fmt.Errorf("%d regression(s) beyond %.0f%% tolerance:\n  %s",
			len(regressions), tol*100, joinLines(regressions))
	}
	fmt.Printf("no regressions beyond %.0f%% tolerance (%d experiments compared)\n",
		tol*100, len(newBF.Experiments))
	return nil
}

func joinLines(xs []string) string {
	out := ""
	for i, x := range xs {
		if i > 0 {
			out += "\n  "
		}
		out += x
	}
	return out
}
