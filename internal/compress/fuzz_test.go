package compress

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/bitvec"
)

// vecFromBytes interprets fuzz bytes as a bit pattern.
func vecFromBytes(data []byte, maxBits int) *bitvec.Vector {
	n := len(data) * 8
	if n > maxBits {
		n = maxBits
	}
	v := bitvec.New(n)
	for i := 0; i < n; i++ {
		if data[i/8]&(1<<uint(i%8)) != 0 {
			v.Set(i)
		}
	}
	return v
}

// checkOrInto ORs c into a copy of dst and compares the result with the
// dense OR of dst and want, c's plain form.
func checkOrInto(t *testing.T, name string, c *Vector, dst, want *bitvec.Vector) {
	t.Helper()
	got := dst.Clone()
	c.OrInto(got)
	if !got.Equal(bitvec.Or(dst, want)) {
		t.Fatalf("%s: OrInto mismatch at n=%d", name, dst.Len())
	}
}

// FuzzRoundTrip: compression must be lossless for arbitrary bit patterns,
// and OrInto into a non-empty destination must equal the dense OR, also
// for a Not'ed vector, whose tail group carries ones past Len.
func FuzzRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x00, 0xFF, 0xFF})
	f.Add([]byte{0xAA, 0x55, 0x01})
	// A one-group one fill that ends at bit 62 of word 0, before a zero.
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F, 0x01})
	// A one fill, a zero fill, then literals at all 64 offsets of a 63-bit
	// group within a 64-bit word (63·64 bits). Every byte is odd, so each
	// group that crosses a word boundary has a one just past it.
	f.Add(slices.Concat(bytes.Repeat([]byte{0xFF}, 40), bytes.Repeat([]byte{0x00}, 40),
		bytes.Repeat([]byte{0xB7, 0x5D, 0xEF}, 200)))
	f.Fuzz(func(t *testing.T, data []byte) {
		v := vecFromBytes(data, 1<<16)
		c := Compress(v)
		if got := c.Decompress(); !got.Equal(v) {
			t.Fatalf("round trip mismatch at n=%d", v.Len())
		}
		if c.Count() != v.Count() {
			t.Fatalf("Count %d != %d", c.Count(), v.Count())
		}
		if !Not(c).Decompress().Equal(bitvec.Not(v)) {
			t.Fatal("Not mismatch")
		}
		rev := slices.Clone(data)
		slices.Reverse(rev)
		dst := vecFromBytes(rev, 1<<16)
		checkOrInto(t, "c", c, dst, v)
		checkOrInto(t, "Not(c)", Not(c), dst, bitvec.Not(v))
	})
}

// FuzzBinops: compressed Boolean algebra must agree with plain vectors on
// arbitrary operand pairs.
func FuzzBinops(f *testing.F) {
	f.Add([]byte{0xFF}, []byte{0x0F})
	f.Add([]byte{}, []byte{})
	f.Add([]byte{0xAA, 0xAA, 0xAA}, []byte{0x55, 0x55, 0x55})
	f.Add(bytes.Repeat([]byte{0xB7, 0x5D, 0xEF}, 200), bytes.Repeat([]byte{0x00, 0xFF, 0x81, 0x00}, 150))
	f.Fuzz(func(t *testing.T, da, db []byte) {
		// Equal lengths: truncate to the shorter operand.
		n := len(da)
		if len(db) < n {
			n = len(db)
		}
		a := vecFromBytes(da[:n], 1<<14)
		b := vecFromBytes(db[:n], 1<<14)
		ca, cb := Compress(a), Compress(b)
		if !And(ca, cb).Decompress().Equal(bitvec.And(a, b)) {
			t.Fatal("And mismatch")
		}
		if !Or(ca, cb).Decompress().Equal(bitvec.Or(a, b)) {
			t.Fatal("Or mismatch")
		}
		if !Xor(ca, cb).Decompress().Equal(bitvec.Xor(a, b)) {
			t.Fatal("Xor mismatch")
		}
		if !AndNot(ca, cb).Decompress().Equal(bitvec.AndNot(a, b)) {
			t.Fatal("AndNot mismatch")
		}
		checkOrInto(t, "a into b", ca, b, a)
		checkOrInto(t, "Not(b) into a", Not(cb), a, bitvec.Not(b))
	})
}
