package boolmin

import (
	"testing"

	"repro/internal/bitvec"
	"repro/internal/compress"
)

// FuzzMinimize: for arbitrary on/don't-care partitions, the minimized
// expression must agree with the raw min-term sum outside the don't-care
// set and never reference more than k variables.
func FuzzMinimize(f *testing.F) {
	f.Add(uint8(3), []byte{0, 1, 2})
	f.Add(uint8(5), []byte{0, 0, 1, 2, 2, 1, 0})
	f.Add(uint8(1), []byte{})
	f.Fuzz(func(t *testing.T, kRaw uint8, assignment []byte) {
		k := int(kRaw%6) + 1
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
		if min.AccessCost() > k {
			t.Fatalf("cost %d > k=%d", min.AccessCost(), k)
		}
		raw := FromMinterms(k, on)
		if !Equivalent(raw, min, dc) {
			t.Fatalf("k=%d on=%v dc=%v: %s not equivalent to min-term sum", k, on, dc, min)
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
// with constant-true and masked-out shapes Minimize would never emit —
// over dense and WAH-streamed operands. Rows must be bit-for-bit
// identical and the accounting exactly equal on both routes.
func FuzzFusedEval(f *testing.F) {
	f.Add(uint8(3), uint16(100), []byte{0, 1, 2, 7}, []byte{1, 2, 3})
	f.Add(uint8(2), uint16(70), []byte{}, []byte{0xff, 0x00})
	f.Add(uint8(1), uint16(65), []byte{3}, []byte{}) // constant-true cube (mask covers all)
	f.Add(uint8(4), uint16(300), []byte{0xf0}, []byte{0xaa, 0x55})
	f.Fuzz(func(t *testing.T, kRaw uint8, nRaw uint16, cubeBytes, rowBytes []byte) {
		k := int(kRaw%6) + 1
		n := int(nRaw%2000) + 1
		mask := uint32(1)<<uint(k) - 1

		// Cube list straight from the fuzzer: byte 2i = value, byte 2i+1 =
		// mask (defaulting to 0 = full min-term).
		var e Expr
		e.K = k
		for i := 0; i+1 <= len(cubeBytes) && i < 16; i += 2 {
			c := Cube{Value: uint32(cubeBytes[i]) & mask}
			if i+1 < len(cubeBytes) {
				c.Mask = uint32(cubeBytes[i+1]) & mask
			}
			c.Value &^= c.Mask
			e.Cubes = append(e.Cubes, c)
		}

		codes := make([]uint32, n)
		for i := range codes {
			if len(rowBytes) > 0 {
				codes[i] = uint32(rowBytes[i%len(rowBytes)]+byte(i)) & mask
			}
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
