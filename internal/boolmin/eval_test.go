package boolmin

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bitvec"
)

// buildVectors encodes the given row codes into k bit vectors, B_i holding
// bit i of each row's code — the layout of an encoded bitmap index.
func buildVectors(k int, codes []uint32) []*bitvec.Vector {
	vecs := make([]*bitvec.Vector, k)
	for i := range vecs {
		vecs[i] = bitvec.New(len(codes))
	}
	for row, c := range codes {
		for i := 0; i < k; i++ {
			if c&(1<<uint(i)) != 0 {
				vecs[i].Set(row)
			}
		}
	}
	return vecs
}

func TestEvalVectorsPaperFigure1(t *testing.T) {
	// Figure 1: rows with A = a,b,c,b,a,c encoded a=00,b=01,c=10.
	codes := []uint32{0b00, 0b01, 0b10, 0b01, 0b00, 0b10}
	vecs := buildVectors(2, codes)

	fa := RetrievalFunction(2, 0b00)
	res := EvalVectors(fa, vecs)
	if got := res.Rows.String(); got != "100010" {
		t.Errorf("f_a rows = %s, want 100010", got)
	}
	if res.VectorsRead != 2 {
		t.Errorf("f_a VectorsRead = %d, want 2", res.VectorsRead)
	}

	// Q2: A=a OR A=b reduces to B1' and reads one vector.
	fab := Minimize(2, []uint32{0b00, 0b01}, nil)
	res = EvalVectors(fab, vecs)
	if got := res.Rows.String(); got != "110110" {
		t.Errorf("f_a+f_b rows = %s, want 110110", got)
	}
	if res.VectorsRead != 1 {
		t.Errorf("f_a+f_b VectorsRead = %d, want 1 (paper's c_e)", res.VectorsRead)
	}
}

func TestEvalVectorsConstants(t *testing.T) {
	vecs := buildVectors(2, []uint32{0, 1, 2, 3})
	// Constant false.
	res := EvalVectors(Expr{K: 2}, vecs)
	if res.Rows.Any() || res.VectorsRead != 0 {
		t.Fatal("constant false should select nothing and read nothing")
	}
	// Constant true.
	res = EvalVectors(Expr{K: 2, Cubes: []Cube{{Mask: 0b11}}}, vecs)
	if res.Rows.Count() != 4 {
		t.Fatal("constant true should select all rows")
	}
}

func TestEvalVectorsPanicsOnShortVecs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	EvalVectors(Expr{K: 3, Cubes: []Cube{{}}}, buildVectors(2, []uint32{0}))
}

// Property: vector evaluation agrees with pointwise truth-table evaluation.
func TestPropEvalVectorsMatchesPointwise(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := 1 + r.Intn(5)
		nRows := 1 + r.Intn(200)
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
		res := EvalVectors(e, buildVectors(k, codes))
		for row, c := range codes {
			if res.Rows.Get(row) != e.Eval(c) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: VectorsRead equals the number of distinct variables in the
// expression, never more than k.
func TestPropVectorsReadMatchesVars(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := 1 + r.Intn(5)
		var on []uint32
		for x := 0; x < 1<<uint(k); x++ {
			if r.Intn(2) == 0 {
				on = append(on, uint32(x))
			}
		}
		e := Minimize(k, on, nil)
		codes := make([]uint32, 50)
		for i := range codes {
			codes[i] = uint32(r.Intn(1 << uint(k)))
		}
		res := EvalVectors(e, buildVectors(k, codes))
		return res.VectorsRead == e.AccessCost() && res.VectorsRead <= k
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEvalVectorsK10(b *testing.B) {
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
	e := Minimize(10, on, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EvalVectors(e, vecs)
	}
}
