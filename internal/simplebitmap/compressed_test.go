package simplebitmap

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCompressedMatchesPlain(t *testing.T) {
	col := []string{"a", "b", "c", "b", "a", "c", "a"}
	isNull := []bool{false, false, false, false, false, false, true}
	plain, err := Build(col, isNull)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := BuildCompressed(col, isNull)
	if err != nil {
		t.Fatal(err)
	}
	if comp.Len() != plain.Len() || comp.Cardinality() != plain.Cardinality() {
		t.Fatal("shape mismatch")
	}
	for _, v := range []string{"a", "b", "c", "zzz"} {
		pa, _ := plain.Eq(v)
		ca, _ := comp.Eq(v)
		if !pa.Equal(ca) {
			t.Fatalf("Eq(%s) differs", v)
		}
	}
	pa, _ := plain.In([]string{"a", "c"})
	ca, stC := comp.In([]string{"a", "c"})
	if !pa.Equal(ca) {
		t.Fatal("In differs")
	}
	if stC.VectorsRead != 2 {
		t.Fatalf("compressed In read %d vectors", stC.VectorsRead)
	}
	pn, _ := plain.IsNull()
	cn, _ := comp.IsNull()
	if !pn.Equal(cn) {
		t.Fatal("IsNull differs")
	}
	cnt, err := comp.CountEq("a")
	if err != nil || cnt != 2 {
		t.Fatalf("CountEq = %d, %v", cnt, err)
	}
	if cnt, _ := comp.CountEq("zzz"); cnt != 0 {
		t.Fatal("CountEq of absent value should be 0")
	}
	empty, _ := comp.In(nil)
	if empty.Any() {
		t.Fatal("empty In should match nothing")
	}
	if _, err := BuildCompressed([]string{"a"}, []bool{true, false}); err == nil {
		t.Fatal("length mismatch should propagate")
	}
}

// On high-cardinality uniform data the compressed index must be
// dramatically smaller than the plain one.
func TestCompressedSpaceWin(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	n, m := 50000, 2000
	col := make([]int, n)
	for i := range col {
		col[i] = r.Intn(m)
	}
	plain, _ := Build(col, nil)
	comp, _ := BuildCompressed(col, nil)
	ratio := float64(comp.SizeBytes()) / float64(plain.SizeBytes())
	if ratio > 0.2 {
		t.Fatalf("compression ratio %.3f, expected < 0.2 at m=%d", ratio, m)
	}
	if cr := comp.CompressionRatio(); cr > 0.2 {
		t.Fatalf("CompressionRatio() = %.3f", cr)
	}
}

// Property: compressed and plain agree on random workloads, and on
// sorted, run-heavy columns whose vectors are mostly fills. In reads the
// same vectors as the plain index, charges their compressed words, and
// counts one OR fewer: the plain In ORs its first operand into an empty
// result, the compressed In counts δ-1 operations.
func TestPropCompressedEquivalence(t *testing.T) {
	check := func(r *rand.Rand, col []int, isNull []bool, m int) bool {
		plain, err := Build(col, isNull)
		if err != nil {
			return false
		}
		comp, err := BuildCompressed(col, isNull)
		if err != nil {
			return false
		}
		// m itself is never indexed: In must skip it without charging it.
		vals := r.Perm(m + 1)[:1+r.Intn(m+1)]
		pa, pst := plain.In(vals)
		ca, cst := comp.In(vals)
		words := 0
		for _, v := range vals {
			if cv, ok := comp.vectors[v]; ok {
				words += cv.Words()
			}
		}
		if cst.VectorsRead != pst.VectorsRead || cst.WordsRead != words || cst.BoolOps != max(pst.BoolOps-1, 0) {
			t.Logf("n=%d: compressed In stats %+v, plain %+v, compressed words %d", len(col), cst, pst, words)
			return false
		}
		return pa.Equal(ca)
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(300)
		m := 1 + r.Intn(30)
		col := make([]int, n)
		isNull := make([]bool, n)
		for i := range col {
			col[i] = r.Intn(m)
			isNull[i] = r.Intn(15) == 0
		}
		if !check(r, col, isNull, m) {
			return false
		}
		col, isNull = sortedColumn(r, m)
		return check(r, col, isNull, m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// sortedColumn returns a run-heavy column over values [0, m): ascending
// runs of random lengths, one NULL run, and a few rows set to random
// values so that literals sit between the fills. Its length is above
// 256·64 and a multiple of neither 63 nor 64, so both the WAH tail group
// and the dense tail word are partial.
func sortedColumn(r *rand.Rand, m int) ([]int, []bool) {
	n := 256*64 + 1 + r.Intn(20000)
	for n%63 == 0 || n%64 == 0 {
		n++
	}
	col := make([]int, n)
	isNull := make([]bool, n)
	cuts := make([]int, m-1)
	for i := range cuts {
		cuts[i] = r.Intn(n)
	}
	for i := range col {
		for _, c := range cuts { // row i holds the number of cuts at or before it
			if i >= c {
				col[i]++
			}
		}
		if r.Intn(500) == 0 {
			col[i] = r.Intn(m)
		}
	}
	lo := r.Intn(n)
	hi := min(n, lo+1+r.Intn(3000))
	for i := lo; i < hi; i++ {
		isNull[i] = true
	}
	return col, isNull
}
