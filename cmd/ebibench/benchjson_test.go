package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCompareDetectsRegression is the fixture-pair acceptance check: the
// regressed snapshot carries a 3.1x median on query/eq/encoded and a 1.9x
// vector-read count on query/range180/encoded; both must be flagged at
// 25% tolerance, while the 2% compression drift must not.
func TestCompareDetectsRegression(t *testing.T) {
	oldBF, err := readBenchFile(filepath.Join("testdata", "bench_base.json"))
	if err != nil {
		t.Fatal(err)
	}
	newBF, err := readBenchFile(filepath.Join("testdata", "bench_regressed.json"))
	if err != nil {
		t.Fatal(err)
	}
	report, regressions := compareBench(oldBF, newBF, 0.25)
	if len(report) != 3 {
		t.Fatalf("report has %d lines, want 3:\n%s", len(report), strings.Join(report, "\n"))
	}
	if len(regressions) != 2 {
		t.Fatalf("flagged %d regressions, want 2: %v", len(regressions), regressions)
	}
	joined := strings.Join(regressions, "\n")
	if !strings.Contains(joined, "query/eq/encoded") || !strings.Contains(joined, "med") {
		t.Fatalf("median regression not flagged: %v", regressions)
	}
	if !strings.Contains(joined, "query/range180/encoded") || !strings.Contains(joined, "vectors") {
		t.Fatalf("vector-read regression not flagged: %v", regressions)
	}
	if strings.Contains(joined, "compression") {
		t.Fatalf("in-tolerance compression drift flagged: %v", regressions)
	}

	// The same pair is clean at a forgiving tolerance.
	if _, regs := compareBench(oldBF, newBF, 3.0); len(regs) != 0 {
		t.Fatalf("300%% tolerance still flags: %v", regs)
	}
	// And a self-compare is always clean.
	if _, regs := compareBench(oldBF, oldBF, 0.0); len(regs) != 0 {
		t.Fatalf("self-compare flags: %v", regs)
	}
}

func TestCompareDisappearedExperiment(t *testing.T) {
	oldBF, err := readBenchFile(filepath.Join("testdata", "bench_base.json"))
	if err != nil {
		t.Fatal(err)
	}
	trimmed := *oldBF
	trimmed.Experiments = oldBF.Experiments[:1]
	_, regressions := compareBench(oldBF, &trimmed, 0.25)
	if len(regressions) != 2 {
		t.Fatalf("regressions = %v, want the two dropped experiments", regressions)
	}
	for _, r := range regressions {
		if !strings.Contains(r, "disappeared") {
			t.Fatalf("unexpected regression %q", r)
		}
	}
}

func TestReadBenchFileValidates(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	if _, err := readBenchFile(write("schema.json", `{"schema":"ebibench/v999","experiments":[{"name":"x"}]}`)); err == nil {
		t.Fatal("mismatched schema accepted")
	}
	if _, err := readBenchFile(write("empty.json", `{"schema":"ebibench/v1","experiments":[]}`)); err == nil {
		t.Fatal("empty experiment list accepted")
	}
	if _, err := readBenchFile(write("garbage.json", `not json`)); err == nil {
		t.Fatal("invalid JSON accepted")
	}
	if _, err := readBenchFile(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
}

// TestBenchJSONRoundTrip runs the real suite on a small table and checks
// the written snapshot re-reads with the full experiment set, every
// section included, intact.
func TestBenchJSONRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the measured bench suite")
	}
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := writeBenchJSON(config{n: 2000, seed: 1}, path); err != nil {
		t.Fatal(err)
	}
	bf, err := readBenchFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bf.Schema != BenchSchema || bf.Rows != 2000 || bf.Seed != 1 {
		t.Fatalf("metadata = %+v", bf)
	}
	byName := map[string]BenchExperiment{}
	for _, e := range bf.Experiments {
		byName[e.Name] = e
	}
	for _, name := range []string{
		"build/encoded/day", "query/eq/encoded", "query/eq/simple",
		"query/range180/encoded", "query/mixed-and-or/planner",
		"compression/simple/salespoint", "compression/encoded/salespoint",
		// One entry of each section the suite always writes.
		"parallel/in8/par", "eval/in8/fused", "reorder/plan/gray-asc",
		"audit/overhead/rate1pct", "reencode-live/flip",
	} {
		e, ok := byName[name]
		if !ok {
			t.Fatalf("experiment %q missing from the suite", name)
		}
		if e.MedNS < 0 || e.P99NS < e.MedNS {
			t.Fatalf("%s: med=%d p99=%d", name, e.MedNS, e.P99NS)
		}
	}
	if r := byName["compression/simple/salespoint"].Ratio; r <= 0 || r > 1.5 {
		t.Fatalf("compression ratio = %v", r)
	}
	// The mixed planner query reads vectors through both paths.
	if byName["query/mixed-and-or/planner"].VectorsRead == 0 {
		t.Fatal("planner experiment recorded no vector reads")
	}

	// The file is valid indented JSON ending in a newline (committed form).
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if raw[len(raw)-1] != '\n' {
		t.Fatal("snapshot missing trailing newline")
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
}
