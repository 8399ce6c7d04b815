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
	p := Compile(Minimize(8, on, nil))
	dst := bitvec.New(len(codes))
	if allocs := testing.AllocsPerRun(100, func() { p.EvalInto(dst, srcs) }); allocs != 0 {
		t.Fatalf("steady-state EvalInto allocates %.0f objects per run, want 0", allocs)
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
