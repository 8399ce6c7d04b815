package boolmin

import (
	"math/rand"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/parallel"
)

// assertSameResult checks rows and every accounting field for exact
// equality between the sequential and parallel evaluators.
func assertSameResult(t *testing.T, ctx string, seq, par EvalResult) {
	t.Helper()
	if !par.Rows.Equal(seq.Rows) {
		t.Fatalf("%s: parallel rows differ from sequential", ctx)
	}
	if par.VectorsRead != seq.VectorsRead {
		t.Fatalf("%s: VectorsRead = %d, want %d", ctx, par.VectorsRead, seq.VectorsRead)
	}
	if par.WordsRead != seq.WordsRead {
		t.Fatalf("%s: WordsRead = %d, want %d", ctx, par.WordsRead, seq.WordsRead)
	}
	if par.Ops != seq.Ops {
		t.Fatalf("%s: Ops = %d, want %d", ctx, par.Ops, seq.Ops)
	}
}

// evalParallel compiles e and runs it through the segmented evaluator,
// the way hot paths call it.
func evalParallel(e Expr, vecs []*bitvec.Vector, pool *parallel.Pool, degree int) EvalResult {
	n := 0
	if e.K > 0 {
		n = vecs[0].Len()
	}
	return Compile(e).EvalParallelInto(bitvec.New(n), vecs, pool, degree, nil)
}

func TestEvalVectorsParallelMatchesSequential(t *testing.T) {
	pool := parallel.NewPool(4)
	defer pool.Close()
	nRowsChoices := []int{1, 100, bitvec.SegmentBits - 1, bitvec.SegmentBits, bitvec.SegmentBits + 63, 2*bitvec.SegmentBits + 501}
	for seed := int64(0); seed < 30; seed++ {
		r := rand.New(rand.NewSource(seed))
		k := 1 + r.Intn(5)
		nRows := nRowsChoices[r.Intn(len(nRowsChoices))]
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
		vecs := buildVectors(k, codes)
		seq := EvalVectors(e, vecs)
		for _, degree := range []int{1, 2, 4, 16} {
			par := evalParallel(e, vecs, pool, degree)
			assertSameResult(t, "seed/degree", seq, par)
		}
	}
}

func TestEvalVectorsParallelConstants(t *testing.T) {
	pool := parallel.NewPool(4)
	defer pool.Close()
	vecs := buildVectors(2, []uint32{0, 1, 2, 3})

	// Constant false (no cubes).
	assertSameResult(t, "const false",
		EvalVectors(Expr{K: 2}, vecs),
		evalParallel(Expr{K: 2}, vecs, pool, 4))

	// Constant true (one empty cube) — early return, no segment work.
	e := Expr{K: 2, Cubes: []Cube{{Mask: 0b11}}}
	assertSameResult(t, "const true", EvalVectors(e, vecs), evalParallel(e, vecs, pool, 4))

	// Constant true behind a real cube: the sequential evaluator pays the
	// first cube's ops before hitting the early return; the compiled program must
	// count identically.
	e = Expr{K: 2, Cubes: []Cube{{Mask: 0b10, Value: 0b01}, {Mask: 0b11}}}
	assertSameResult(t, "cube then const", EvalVectors(e, vecs), evalParallel(e, vecs, pool, 4))
}

func TestEvalVectorsParallelNegationAccounting(t *testing.T) {
	pool := parallel.NewPool(4)
	defer pool.Close()
	r := rand.New(rand.NewSource(42))
	codes := make([]uint32, bitvec.SegmentBits+777)
	for i := range codes {
		codes[i] = uint32(r.Intn(8))
	}
	vecs := buildVectors(3, codes)
	// Hand-built expression reusing the same negated variable across cubes:
	// the sequential evaluator computes B0' once; the compiled program must too.
	e := Expr{K: 3, Cubes: []Cube{
		{Mask: 0b110, Value: 0b000}, // B0'
		{Mask: 0b010, Value: 0b100}, // B0' AND B2
		{Mask: 0b001, Value: 0b001}, // B0 AND B1' AND B2'
	}}
	assertSameResult(t, "shared negation", EvalVectors(e, vecs), evalParallel(e, vecs, pool, 4))
}

func TestEvalVectorsParallelNilPoolUsesDefault(t *testing.T) {
	vecs := buildVectors(2, []uint32{0, 1, 2, 3, 2, 1})
	e := Minimize(2, []uint32{1, 2}, nil)
	assertSameResult(t, "nil pool", EvalVectors(e, vecs), evalParallel(e, vecs, nil, 2))
}

func TestEvalVectorsParallelPanicsOnShortVecs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	evalParallel(Expr{K: 3, Cubes: []Cube{{}}}, buildVectors(2, []uint32{0}), nil, 2)
}
