package boolmin

import (
	"slices"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/compress"
)

// FuzzMinimize: for arbitrary on/don't-care partitions of up to 8-bit
// codes, Minimize must return exactly the tabular reference's expression,
// cube for cube and in order, and that expression must agree with the raw
// min-term sum outside the don't-care set, reference at most k variables
// and consist of prime cubes only.
func FuzzMinimize(f *testing.F) {
	f.Add(uint8(3), []byte{0, 1, 2})
	f.Add(uint8(5), []byte{0, 0, 1, 2, 2, 1, 0})
	f.Add(uint8(1), []byte{})
	// The shape of an EBI with free codes: k=8, values coded 1..180 (code 0
	// is the void code), an IN-list over every seventh, and the free codes
	// 181..255 don't-cares.
	ebi := make([]byte, 256)
	for x := range ebi {
		switch {
		case x > 180:
			ebi[x] = 2
		case x%7 == 3:
			ebi[x] = 1
		}
	}
	f.Add(uint8(7), ebi)
	f.Fuzz(func(t *testing.T, kRaw uint8, assignment []byte) {
		k := int(kRaw%8) + 1
		var on, dc []uint32
		for x := 0; x < 1<<uint(k) && x < len(assignment); x++ {
			switch assignment[x] % 3 {
			case 1:
				on = append(on, uint32(x))
			case 2:
				dc = append(dc, uint32(x))
			}
		}
		min := Minimize(k, on, dc)
		if want := refMinimize(k, on, dc); !sameExpr(min, want) {
			t.Fatalf("k=%d on=%v dc=%v: got %s %v, the reference %s %v", k, on, dc, min, min.Cubes, want, want.Cubes)
		}
		// Neither the order of the code lists nor repeats in them matter.
		twice := func(xs []uint32) []uint32 {
			out := slices.Clone(xs)
			slices.Reverse(out)
			return append(out, xs...)
		}
		if again := Minimize(k, twice(on), twice(dc)); !sameExpr(again, min) {
			t.Fatalf("k=%d on=%v dc=%v: reversed and repeated lists give %v, not %v", k, on, dc, again.Cubes, min.Cubes)
		}
		if err := checkReduced(k, on, dc, min); err != nil {
			t.Fatalf("k=%d on=%v dc=%v: %v", k, on, dc, err)
		}
	})
}

// FuzzUnmarshalVector is covered in internal/bitvec; here we fuzz the
// retrieval-function path: arbitrary codes always produce full min-terms.
func FuzzRetrievalFunction(f *testing.F) {
	f.Add(uint8(4), uint32(5))
	f.Fuzz(func(t *testing.T, kRaw uint8, code uint32) {
		k := int(kRaw%20) + 1
		e := RetrievalFunction(k, code)
		if len(e.Cubes) != 1 || e.Cubes[0].Literals(k) != k {
			t.Fatalf("retrieval function is not a full min-term: %s", e)
		}
		if !e.Eval(code & ((1 << uint(k)) - 1)) {
			t.Fatal("retrieval function false at its own code")
		}
	})
}

// FuzzFusedEval cross-checks the fused kernel against the sequential
// baseline on arbitrary expressions — including unminimized cube lists
// with constant-true, duplicate, subsumed and masked-out shapes Minimize
// would never emit — over dense and WAH-streamed operands. Rows must be
// bit-for-bit identical and the accounting exactly equal on both routes,
// and Program.Selects must agree with the kernel on every row.
func FuzzFusedEval(f *testing.F) {
	f.Add(uint8(3), uint16(100), []byte{0, 1, 2, 7}, []byte{1, 2, 3})
	f.Add(uint8(2), uint16(70), []byte{}, []byte{0xff, 0x00})
	f.Add(uint8(1), uint16(65), []byte{0, 0, 3, 0}, []byte{}) // constant-true cube (mask covers all)
	f.Add(uint8(4), uint16(300), []byte{0xf0, 0, 0, 0, 0xaa, 0x55}, []byte{0xaa, 0x55})
	// k=10: a deep shared prefix, a duplicate, then a cube subsuming both.
	f.Add(uint8(9), uint16(1500), []byte{0x5a, 0x02, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x0f, 0}, []byte{7, 3, 250})
	f.Fuzz(func(t *testing.T, kRaw uint8, nRaw uint16, cubeBytes, rowBytes []byte) {
		k := int(kRaw%10) + 1
		n := int(nRaw%2000) + 1
		mask := uint32(1)<<uint(k) - 1

		// Cube list straight from the fuzzer, four bytes per cube: a value
		// delta and a mask delta, each a little-endian uint16 XORed onto
		// the previous cube, so zero deltas repeat a cube and low-bit
		// deltas share its MSB-first prefix.
		var e Expr
		e.K = k
		var c Cube
		for i := 0; i < len(cubeBytes) && len(e.Cubes) < 32; i += 4 {
			var d [4]byte
			copy(d[:], cubeBytes[i:])
			c.Value ^= (uint32(d[0]) | uint32(d[1])<<8) & mask
			c.Mask ^= (uint32(d[2]) | uint32(d[3])<<8) & mask
			e.Cubes = append(e.Cubes, Cube{Value: c.Value &^ c.Mask, Mask: c.Mask})
		}

		codes := make([]uint32, n)
		for i := range codes {
			b := uint32(0)
			if len(rowBytes) > 0 {
				b = uint32(rowBytes[i%len(rowBytes)])
			}
			codes[i] = (b<<2 + uint32(i)) & mask
		}
		vecs := buildVectors(k, codes)
		want := EvalVectors(e, vecs)

		p := Compile(e)
		for i, c := range codes {
			if p.Selects(c) != want.Rows.Get(i) {
				t.Fatalf("Selects(%0*b) = %v for %s, kernel row %d says %v", k, c, !want.Rows.Get(i), e, i, want.Rows.Get(i))
			}
		}
		srcs := make([]bitvec.WordSource, k)
		wah := make([]bitvec.WordSource, k)
		for i, v := range vecs {
			srcs[i] = v
			wah[i] = compress.Compress(v).Stream()
		}
		for _, route := range []struct {
			name string
			got  EvalResult
		}{
			{"dense", p.EvalInto(bitvec.New(n), srcs)},
			{"wah", p.EvalInto(bitvec.New(n), wah)},
		} {
			if !route.got.Rows.Equal(want.Rows) {
				t.Fatalf("%s rows diverge for %s over %d rows", route.name, e, n)
			}
			if route.got.VectorsRead != want.VectorsRead ||
				route.got.WordsRead != want.WordsRead ||
				route.got.Ops != want.Ops {
				t.Fatalf("%s stats diverge for %s: got {v=%d w=%d ops=%d} want {v=%d w=%d ops=%d}",
					route.name, e,
					route.got.VectorsRead, route.got.WordsRead, route.got.Ops,
					want.VectorsRead, want.WordsRead, want.Ops)
			}
		}
	})
}

// FuzzIntervalCover checks IntervalCover on arbitrary intervals of up to
// 12-bit codes: the cover selects exactly the interval, every cube is an
// aligned block (its free variables are the low ones and its value starts
// the block), there are at most max(1, 2(k-1)) cubes, and the compiled
// cover's rows and accounting over every code equal EvalVectors'.
func FuzzIntervalCover(f *testing.F) {
	f.Add(uint8(10), uint16(1), uint16(1022))
	f.Add(uint8(3), uint16(0), uint16(7))
	f.Add(uint8(0), uint16(0), uint16(0))
	f.Add(uint8(12), uint16(2049), uint16(2049))
	f.Add(uint8(5), uint16(20), uint16(3))
	f.Fuzz(func(t *testing.T, kRaw uint8, a, b uint16) {
		k := int(kRaw % 13)
		mask := uint32(1)<<uint(k) - 1
		lo, hi := uint32(a)&mask, uint32(b)&mask
		if lo > hi {
			lo, hi = hi, lo
		}
		e := IntervalCover(k, lo, hi)
		if limit := max(1, 2*(k-1)); len(e.Cubes) > limit {
			t.Fatalf("[%d, %d] over k=%d: %d cubes, want at most %d", lo, hi, k, len(e.Cubes), limit)
		}
		for _, c := range e.Cubes {
			if c.Mask&(c.Mask+1) != 0 || c.Value&c.Mask != 0 || c.Mask > mask {
				t.Fatalf("[%d, %d] over k=%d: cube %+v is not an aligned block", lo, hi, k, c)
			}
		}
		p := Compile(e)
		codes := make([]uint32, 1<<uint(k))
		for x := range codes {
			codes[x] = uint32(x)
			in := codes[x] >= lo && codes[x] <= hi
			if e.Eval(codes[x]) != in || p.Selects(codes[x]) != in {
				t.Fatalf("[%d, %d] over k=%d: cover %s at %d: Eval %v, Selects %v", lo, hi, k, e, x, e.Eval(codes[x]), p.Selects(codes[x]))
			}
		}
		vecs := buildVectors(k, codes)
		want := EvalVectors(e, vecs) // over k=0 operands, a zero-length row set
		srcs := make([]bitvec.WordSource, k)
		for i, v := range vecs {
			srcs[i] = v
		}
		got := p.EvalInto(bitvec.New(want.Rows.Len()), srcs)
		if !got.Rows.Equal(want.Rows) || got.VectorsRead != want.VectorsRead ||
			got.WordsRead != want.WordsRead || got.Ops != want.Ops {
			t.Fatalf("[%d, %d] over k=%d: compiled cover {v=%d w=%d ops=%d} diverges from EvalVectors {v=%d w=%d ops=%d}",
				lo, hi, k, got.VectorsRead, got.WordsRead, got.Ops, want.VectorsRead, want.WordsRead, want.Ops)
		}
	})
}
