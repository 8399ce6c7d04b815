package boolmin

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bitvec"
	"repro/internal/compress"
	"repro/internal/parallel"
)

// checkFusedAgrees runs every fused route against the sequential baseline
// and fails unless rows are bit-for-bit identical and the accounting is
// exactly equal: dense EvalInto, WAH-streamed EvalInto, and the segmented
// parallel path.
func checkFusedAgrees(t *testing.T, e Expr, vecs []*bitvec.Vector) {
	t.Helper()
	want := EvalVectors(e, vecs)
	check := func(route string, got EvalResult) {
		t.Helper()
		if !got.Rows.Equal(want.Rows) {
			t.Fatalf("%s: rows diverge for %s", route, e)
		}
		if got.VectorsRead != want.VectorsRead || got.WordsRead != want.WordsRead || got.Ops != want.Ops {
			t.Fatalf("%s: stats diverge for %s: got {v=%d w=%d ops=%d} want {v=%d w=%d ops=%d}",
				route, e, got.VectorsRead, got.WordsRead, got.Ops,
				want.VectorsRead, want.WordsRead, want.Ops)
		}
	}
	check("fused dense", evalFused(e, vecs))

	p := Compile(e)
	n := 0
	if e.K > 0 {
		n = vecs[0].Len()
	}
	streams := make([]bitvec.WordSource, len(vecs))
	for i, v := range vecs {
		streams[i] = compress.Compress(v).Stream()
	}
	check("fused wah", p.EvalInto(bitvec.New(n), streams))
	check("fused parallel", p.EvalParallelInto(bitvec.New(n), vecs, parallel.Default(), 4, nil))
}

// evalFused compiles e and evaluates it once over dense operands.
func evalFused(e Expr, vecs []*bitvec.Vector) EvalResult {
	n := 0
	if e.K > 0 {
		n = vecs[0].Len()
	}
	srcs := make([]bitvec.WordSource, len(vecs))
	for i, v := range vecs {
		srcs[i] = v
	}
	return Compile(e).EvalInto(bitvec.New(n), srcs)
}

func TestFusedPaperFigure1(t *testing.T) {
	codes := []uint32{0b00, 0b01, 0b10, 0b01, 0b00, 0b10}
	vecs := buildVectors(2, codes)
	checkFusedAgrees(t, RetrievalFunction(2, 0b00), vecs)
	checkFusedAgrees(t, Minimize(2, []uint32{0b00, 0b01}, nil), vecs)
}

func TestFusedConstants(t *testing.T) {
	vecs := buildVectors(2, []uint32{0, 1, 2, 3})
	// Constant false: no cubes.
	checkFusedAgrees(t, Expr{K: 2}, vecs)
	// Constant true: a no-literal cube.
	checkFusedAgrees(t, Expr{K: 2, Cubes: []Cube{{Mask: 0b11}}}, vecs)
	// Constant-true cube after a real cube: the baseline charges the first
	// cube's work, then fills and stops. The compiled program must replay
	// that exact accounting.
	checkFusedAgrees(t, Expr{K: 2, Cubes: []Cube{
		{Value: 0b01, Mask: 0b10},
		{Mask: 0b11},
		{Value: 0b10, Mask: 0b01},
	}}, vecs)
	// k=0 degenerate shapes.
	checkFusedAgrees(t, Expr{K: 0}, nil)
	checkFusedAgrees(t, Expr{K: 0, Cubes: []Cube{{}}}, nil)
}

func TestFusedPanicsOnShortVecs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	evalFused(Expr{K: 3, Cubes: []Cube{{}}}, buildVectors(2, []uint32{0}))
}

func TestFusedPanicsOnLengthMismatch(t *testing.T) {
	vecs := []*bitvec.Vector{bitvec.New(10), bitvec.New(20)}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Compile(Expr{K: 2, Cubes: []Cube{{Value: 0b11}}}).
		EvalInto(bitvec.New(10), []bitvec.WordSource{vecs[0], vecs[1]})
}

// Property: fused evaluation agrees with the baseline on random minimized
// expressions over random operand data, on every route.
func TestPropFusedMatchesBaseline(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := 1 + r.Intn(5)
		nRows := 1 + r.Intn(3000)
		codes := make([]uint32, nRows)
		for i := range codes {
			codes[i] = uint32(r.Intn(1 << uint(k)))
		}
		var on, dc []uint32
		for x := 0; x < 1<<uint(k); x++ {
			switch r.Intn(3) {
			case 0:
				on = append(on, uint32(x))
			case 1:
				dc = append(dc, uint32(x))
			}
		}
		e := Minimize(k, on, dc)
		checkFusedAgrees(t, e, buildVectors(k, codes))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestFusedZeroAllocSteadyState is the PR's allocation acceptance gate: a
// compiled program evaluating into a reused destination over dense
// operands must not allocate.
func TestFusedZeroAllocSteadyState(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	codes := make([]uint32, 4096)
	for i := range codes {
		codes[i] = uint32(r.Intn(1 << 8))
	}
	vecs := buildVectors(8, codes)
	srcs := make([]bitvec.WordSource, len(vecs))
	for i, v := range vecs {
		srcs[i] = v
	}
	var on []uint32
	for x := 0; x < 200; x += 3 {
		on = append(on, uint32(x))
	}
	// A trie-heavy program too: a random 64-value list keeps deep inner
	// nodes, so every depth's scratch block is in use.
	var list []uint32
	for _, x := range r.Perm(1 << 8)[:64] {
		list = append(list, uint32(x))
	}
	dst := bitvec.New(len(codes))
	for _, p := range []*Program{Compile(Minimize(8, on, nil)), Compile(Minimize(8, list, nil))} {
		if allocs := testing.AllocsPerRun(100, func() { p.EvalInto(dst, srcs) }); allocs != 0 {
			t.Fatalf("steady-state EvalInto allocates %.0f objects per run, want 0", allocs)
		}
	}
}

// TestCompileTrie pins the trie's shape: cubes sharing a literal prefix
// share its nodes, a cube extending (or repeating) another's literal path
// is dropped, and evaluation still matches the baseline on rows and
// accounting, which count every cube of the expression.
func TestCompileTrie(t *testing.T) {
	vecs := buildVectors(3, []uint32{0, 1, 2, 3, 4, 5, 6, 7, 5, 2})
	cases := []struct {
		name  string
		e     Expr
		nodes int
	}{
		// B2B1' + B2B1B0: B2 is shared, so 4 nodes for 5 literals.
		{"shared prefix", Expr{K: 3, Cubes: []Cube{{Value: 0b100, Mask: 0b001}, {Value: 0b111}}}, 4},
		// B2B1 + B2 + B2B1: both B2B1 cubes lie under the B2 leaf.
		{"subsumed and repeated", Expr{K: 3, Cubes: []Cube{{Value: 0b110, Mask: 0b001}, {Value: 0b100, Mask: 0b011}, {Value: 0b110, Mask: 0b001}}}, 1},
		// B1'B0 + B2'B0: no common first literal, no sharing.
		{"disjoint roots", Expr{K: 3, Cubes: []Cube{{Value: 0b001, Mask: 0b100}, {Value: 0b001, Mask: 0b010}}}, 4},
		// [1, 6] is the aligned blocks {1} {2,3} {4,5} {6}:
		// B2'B1'B0 + B2'B1 + B2B1' + B2B1B0', 10 literals on 8 nodes.
		{"interval cover", IntervalCover(3, 1, 6), 8},
	}
	for _, c := range cases {
		p := Compile(c.e)
		if len(p.nodes) != c.nodes {
			t.Errorf("%s: %s compiled to %d trie nodes, want %d", c.name, c.e, len(p.nodes), c.nodes)
		}
		checkFusedAgrees(t, c.e, vecs)
	}
}

// TestIntervalCoverExhaustive checks every interval of up to 10-bit codes:
// the cover never exceeds max(1, 2(k-1)) cubes and reaches that bound, and
// up to 6 bits it selects exactly the interval.
func TestIntervalCoverExhaustive(t *testing.T) {
	for k := 0; k <= 10; k++ {
		most := 0
		for lo := uint32(0); lo < 1<<uint(k); lo++ {
			for hi := lo; hi < 1<<uint(k); hi++ {
				e := IntervalCover(k, lo, hi)
				most = max(most, len(e.Cubes))
				if k > 6 {
					continue
				}
				for x := uint32(0); x < 1<<uint(k); x++ {
					if e.Eval(x) != (x >= lo && x <= hi) {
						t.Fatalf("k=%d [%d, %d]: cover %s wrong at %d", k, lo, hi, e, x)
					}
				}
			}
		}
		if want := max(1, 2*(k-1)); most != want {
			t.Errorf("k=%d: largest cover has %d cubes, want %d", k, most, want)
		}
	}
	if e := IntervalCover(4, 9, 3); len(e.Cubes) != 0 {
		t.Fatalf("inverted interval covered by %s, want the constant false", e)
	}
}

// fusedBenchFixture: 2^18 rows, k=10, a 100-value IN selection — the same
// shape as BenchmarkEvalVectorsK10 so the fused/baseline comparison is
// apples to apples.
func fusedBenchFixture(b *testing.B) (Expr, []*bitvec.Vector) {
	r := rand.New(rand.NewSource(7))
	codes := make([]uint32, 1<<18)
	for i := range codes {
		codes[i] = uint32(r.Intn(1024))
	}
	vecs := buildVectors(10, codes)
	on := make([]uint32, 100)
	for i := range on {
		on[i] = uint32(r.Intn(1024))
	}
	return Minimize(10, on, nil), vecs
}

func BenchmarkFusedEvalK10(b *testing.B) {
	e, vecs := fusedBenchFixture(b)
	p := Compile(e)
	srcs := make([]bitvec.WordSource, len(vecs))
	for i, v := range vecs {
		srcs[i] = v
	}
	dst := bitvec.New(vecs[0].Len())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.EvalInto(dst, srcs)
	}
}

func BenchmarkFusedEvalParallelK10(b *testing.B) {
	e, vecs := fusedBenchFixture(b)
	p := Compile(e)
	dst := bitvec.New(vecs[0].Len())
	pool := parallel.Default()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.EvalParallelInto(dst, vecs, pool, 4, nil)
	}
}

func BenchmarkFusedEvalWAHK10(b *testing.B) {
	e, vecs := fusedBenchFixture(b)
	p := Compile(e)
	comp := make([]*compress.Vector, len(vecs))
	for i, v := range vecs {
		comp[i] = compress.Compress(v)
	}
	dst := bitvec.New(vecs[0].Len())
	srcs := make([]bitvec.WordSource, len(comp))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, cv := range comp {
			srcs[j] = cv.Stream()
		}
		p.EvalInto(dst, srcs)
	}
}
