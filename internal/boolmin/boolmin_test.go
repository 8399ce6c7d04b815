package boolmin

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestCubeCovers(t *testing.T) {
	c := Cube{Value: 0b100, Mask: 0b001} // B2 B1' with B0 don't-care (k=3)
	for x, want := range map[uint32]bool{
		0b100: true, 0b101: true,
		0b000: false, 0b110: false, 0b111: false,
	} {
		if c.Covers(x) != want {
			t.Errorf("Covers(%03b) = %v, want %v", x, !want, want)
		}
	}
	if c.Literals(3) != 2 || c.Size(3) != 2 {
		t.Errorf("Literals/Size wrong: %d %d", c.Literals(3), c.Size(3))
	}
}

// The paper's Section 2.2 example: domain {a,b,c} encoded 00,01,10 (k=2).
// f_a + f_b = B1'B0' + B1'B0 must reduce to B1'.
func TestPaperSection22Reduction(t *testing.T) {
	e := Minimize(2, []uint32{0b00, 0b01}, nil)
	if got := e.String(); got != "B1'" {
		t.Fatalf("f_a + f_b reduced to %q, want B1'", got)
	}
	if e.AccessCost() != 1 {
		t.Fatalf("AccessCost = %d, want 1", e.AccessCost())
	}
}

// Footnote 3: f_b + f_c = B1'B0 + B1B0' (XOR, 2 vectors). Adding the
// don't-care 11 gives B1 + B0.
func TestPaperFootnote3DontCare(t *testing.T) {
	noDC := Minimize(2, []uint32{0b01, 0b10}, nil)
	if noDC.AccessCost() != 2 || len(noDC.Cubes) != 2 {
		t.Fatalf("without DC: %s (cost %d), want 2-cube XOR form", noDC, noDC.AccessCost())
	}
	withDC := Minimize(2, []uint32{0b01, 0b10}, []uint32{0b11})
	// B1 + B0: two single-literal cubes.
	if len(withDC.Cubes) != 2 {
		t.Fatalf("with DC: %s, want two cubes", withDC)
	}
	for _, c := range withDC.Cubes {
		if c.Literals(2) != 1 {
			t.Fatalf("with DC: %s, want single-literal cubes", withDC)
		}
	}
	if !withDC.Eval(0b01) || !withDC.Eval(0b10) || withDC.Eval(0b00) {
		t.Fatal("don't-care minimization changed required outputs")
	}
}

// Figure 3(a): mapping a..h -> 000,100,011,101,010,111,001,110 (a=000,
// b=100, c=001, d=101, e=011, f=111, g=010, h=110). IN {a,b,c,d} -> B1',
// IN {c,d,e,f} -> B0.
func TestPaperFigure3ProperMapping(t *testing.T) {
	code := map[byte]uint32{
		'a': 0b000, 'c': 0b001, 'g': 0b010, 'e': 0b011,
		'b': 0b100, 'd': 0b101, 'h': 0b110, 'f': 0b111,
	}
	sel1 := Minimize(3, []uint32{code['a'], code['b'], code['c'], code['d']}, nil)
	if got := sel1.String(); got != "B1'" {
		t.Errorf("IN{a,b,c,d} reduced to %q, want B1'", got)
	}
	sel2 := Minimize(3, []uint32{code['c'], code['d'], code['e'], code['f']}, nil)
	if got := sel2.String(); got != "B0" {
		t.Errorf("IN{c,d,e,f} reduced to %q, want B0", got)
	}
}

// Figure 3(b): the improper mapping a..h -> 000..111 in order a,c,g,b,e,d,h,f
// makes both selections need 3 vectors.
func TestPaperFigure3ImproperMapping(t *testing.T) {
	code := map[byte]uint32{
		'a': 0b000, 'c': 0b001, 'g': 0b010, 'b': 0b011,
		'e': 0b100, 'd': 0b101, 'h': 0b110, 'f': 0b111,
	}
	sel1 := Minimize(3, []uint32{code['a'], code['b'], code['c'], code['d']}, nil)
	if sel1.AccessCost() != 3 {
		t.Errorf("improper IN{a,b,c,d}: cost %d (%s), want 3", sel1.AccessCost(), sel1)
	}
	sel2 := Minimize(3, []uint32{code['c'], code['d'], code['e'], code['f']}, nil)
	if sel2.AccessCost() != 3 {
		t.Errorf("improper IN{c,d,e,f}: cost %d (%s), want 3", sel2.AccessCost(), sel2)
	}
}

func TestMinimizeEdgeCases(t *testing.T) {
	if e := Minimize(3, nil, nil); len(e.Cubes) != 0 || e.String() != "0" {
		t.Fatalf("empty on-set: %s", e.String())
	}
	all := make([]uint32, 8)
	for i := range all {
		all[i] = uint32(i)
	}
	e := Minimize(3, all, nil)
	if e.String() != "1" || e.AccessCost() != 0 {
		t.Fatalf("full on-set should be constant true, got %s (cost %d)", e, e.AccessCost())
	}
	// Single minterm stays a full min-term.
	e = Minimize(3, []uint32{0b101}, nil)
	if got := e.String(); got != "B2B1'B0" {
		t.Fatalf("single minterm: %s", got)
	}
	// A repeated code counts once: half the codes twice is not all of them.
	if e := Minimize(1, []uint32{0, 0}, nil); e.String() != "B0'" {
		t.Fatalf("repeated minterm: %s", e)
	}
}

func TestMinimizeRejectsOverlap(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for on∩dc overlap")
		}
	}()
	Minimize(2, []uint32{1}, []uint32{1})
}

func TestMinimizeRejectsBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for k > MaxVars")
		}
	}()
	Minimize(MaxVars+1, []uint32{1}, nil)
}

// Property: Minimize returns exactly the tabular reference's expression,
// which equals the raw min-term sum on every non-don't-care point, reads at
// most k vectors and has only prime cubes. Besides random partitions of up
// to 8-bit codes (from 7 bits on, a merge pairs whole words) it takes
// EBI-shaped inputs over wide free-code spaces at k=10–14: 8–64 on-codes
// among values coded 1..d, d = 0.6–0.75·2^k, with every code above d a
// don't-care. The reference takes seconds per call above k=11, so there
// only the properties are checked.
func TestPropMinimizeCorrectAndNoWorse(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := 1 + r.Intn(8)
		n := 1 << uint(k)
		var on, dc []uint32
		for x := 0; x < n; x++ {
			switch r.Intn(4) {
			case 0:
				on = append(on, uint32(x))
			case 1:
				dc = append(dc, uint32(x))
			}
		}
		min := Minimize(k, on, dc)
		return sameExpr(min, refMinimize(k, on, dc)) && checkReduced(k, on, dc, min) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}

	r := rand.New(rand.NewSource(24))
	for i := 0; i < 20; i++ {
		k := 10 + i%5
		d := uint32(float64(int(1)<<k) * (0.6 + 0.15*r.Float64()))
		on := drawCodes(r, 8+r.Intn(57), 1, d)
		dc := codeRange(d+1, 1<<k-1)
		min := Minimize(k, on, dc)
		if k <= 11 {
			if want := refMinimize(k, on, dc); !sameExpr(min, want) {
				t.Fatalf("k=%d d=%d on=%v: got %v, the reference %v", k, d, on, min.Cubes, want.Cubes)
			}
		}
		if err := checkReduced(k, on, dc, min); err != nil {
			t.Fatalf("k=%d d=%d on=%v: %v", k, d, on, err)
		}
	}
}

// sameExpr reports whether two expressions have the same K and the same
// cubes in the same order.
func sameExpr(a, b Expr) bool {
	return a.K == b.K && slices.Equal(a.Cubes, b.Cubes)
}

// checkReduced returns an error unless e equals the min-term sum of on
// outside dc, reads at most k vectors, and has only prime cubes: freeing
// any one literal of a cube takes in a code outside on ∪ dc.
func checkReduced(k int, on, dc []uint32, e Expr) error {
	if !Equivalent(FromMinterms(k, on), e, dc) {
		return fmt.Errorf("%s is not equivalent to the min-term sum", e)
	}
	if e.AccessCost() > k {
		return fmt.Errorf("%s reads %d > k vectors", e, e.AccessCost())
	}
	inside := make([]bool, 1<<uint(k))
	for _, x := range append(append([]uint32(nil), on...), dc...) {
		inside[x] = true
	}
	for _, c := range e.Cubes {
		for lits := ^c.Mask & kmask(k); lits != 0; lits &= lits - 1 {
			// Freeing literal b adds the cube's mirror image across b.
			b := lits & -lits
			mirror, prime := c.Value^b, false
			for sub := c.Mask; ; sub = (sub - 1) & c.Mask {
				if !inside[mirror|sub] {
					prime = true
					break
				}
				if sub == 0 {
					break
				}
			}
			if !prime {
				return fmt.Errorf("cube %+v of %s is not prime: literal %b can be freed", c, e, b)
			}
		}
	}
	return nil
}

// Property: on subcube on-sets, Minimize reaches the information-theoretic
// optimum computed by MinimalAccessCost.
func TestPropMinimizeOptimalOnSubcubes(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := 2 + r.Intn(4)
		// Random subcube: choose a mask and value.
		mask := uint32(r.Intn(1 << uint(k)))
		val := uint32(r.Intn(1<<uint(k))) &^ mask
		var on []uint32
		for x := uint32(0); x < 1<<uint(k); x++ {
			if (x^val)&^mask == 0 {
				on = append(on, x)
			}
		}
		min := Minimize(k, on, nil)
		want := MinimalAccessCost(k, on, nil)
		return min.AccessCost() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: MinimalAccessCost lower-bounds Minimize's cost.
func TestPropMinimalIsLowerBound(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := 1 + r.Intn(4)
		var on []uint32
		for x := 0; x < 1<<uint(k); x++ {
			if r.Intn(3) == 0 {
				on = append(on, uint32(x))
			}
		}
		return MinimalAccessCost(k, on, nil) <= Minimize(k, on, nil).AccessCost()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMinimalAccessCostKnown(t *testing.T) {
	// Half-space B1' over k=3 needs 1 variable.
	if got := MinimalAccessCost(3, []uint32{0, 1, 4, 5}, nil); got != 1 {
		t.Errorf("half-space cost = %d, want 1", got)
	}
	// XOR of 2 vars needs both.
	if got := MinimalAccessCost(2, []uint32{0b01, 0b10}, nil); got != 2 {
		t.Errorf("xor cost = %d, want 2", got)
	}
	// Constant true / false need 0.
	if got := MinimalAccessCost(2, []uint32{0, 1, 2, 3}, nil); got != 0 {
		t.Errorf("const-true cost = %d, want 0", got)
	}
	if got := MinimalAccessCost(2, nil, nil); got != 0 {
		t.Errorf("const-false cost = %d, want 0", got)
	}
}

// codeRange returns the codes lo..hi.
func codeRange(lo, hi uint32) []uint32 {
	out := make([]uint32, 0, hi-lo+1)
	for x := lo; x <= hi; x++ {
		out = append(out, x)
	}
	return out
}

// drawCodes returns n distinct codes drawn from lo..hi.
func drawCodes(r *rand.Rand, n int, lo, hi uint32) []uint32 {
	seen := make(map[uint32]bool, n)
	out := make([]uint32, 0, n)
	for len(out) < n {
		x := lo + uint32(r.Intn(int(hi-lo+1)))
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	return out
}

// minimized keeps BenchmarkMinimize's results alive.
var minimized Expr

// BenchmarkMinimize times Minimize on the shapes an encoded bitmap index
// gives it. An index over d values maps them to codes 1..d (code 0 is the
// void code) and passes every code above d as a don't-care: day (k=10, an
// IN of 8–64 of 730 days), product-in (8–64 of 1,000 products), product-range
// (a 200-product range rewritten to an IN), k13-wide (8–64 of 5,000 values,
// 3,191 free codes); k10-range is a 512-code half space with no don't-cares
// and k20-scattered 64 scattered codes with none. The IN cases cycle through
// 16 lists drawn from one seed.
func BenchmarkMinimize(b *testing.B) {
	r := rand.New(rand.NewSource(24))
	lists := func(lo, hi uint32) [][]uint32 {
		out := make([][]uint32, 16)
		for i := range out {
			out[i] = drawCodes(r, 8+r.Intn(57), lo, hi)
		}
		return out
	}
	for _, c := range []struct {
		name string
		k    int
		on   [][]uint32
		dc   []uint32
	}{
		{"day", 10, lists(1, 730), codeRange(731, 1023)},
		{"product-in", 10, lists(1, 1000), codeRange(1001, 1023)},
		{"product-range", 10, [][]uint32{codeRange(301, 500)}, codeRange(1001, 1023)},
		{"k10-range", 10, [][]uint32{codeRange(0, 511)}, nil},
		{"k13-wide", 13, lists(1, 5000), codeRange(5001, 8191)},
		{"k20-scattered", 20, [][]uint32{drawCodes(r, 64, 0, 1<<20-1)}, nil},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				minimized = Minimize(c.k, c.on[i%len(c.on)], c.dc)
			}
		})
	}
}
