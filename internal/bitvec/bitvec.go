// Package bitvec implements the dense bit-vector kernel underlying every
// bitmap index in this repository.
//
// A Vector is a growable sequence of bits addressed from position 0. All
// bulk Boolean operations (And, Or, Xor, AndNot, Not) work a 64-bit word at
// a time, which is the property bitmap indexes rely on for their
// "cooperativity": combining two selection conditions costs one pass over
// the vectors rather than a tree traversal per condition.
package bitvec

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Vector is a dense bit vector. The zero value is an empty vector ready to
// use. Bits beyond Len are always zero in the backing words; every mutating
// operation maintains that invariant so popcounts and comparisons never see
// stale tail bits.
type Vector struct {
	words []uint64
	n     int // number of valid bits
}

// New returns a vector of n bits, all zero.
func New(n int) *Vector {
	if n < 0 {
		panic("bitvec: negative length")
	}
	return &Vector{words: make([]uint64, wordsFor(n)), n: n}
}

// FromIndices builds a vector of n bits with the given positions set.
func FromIndices(n int, idx []int) *Vector {
	v := New(n)
	for _, i := range idx {
		v.Set(i)
	}
	return v
}

func wordsFor(n int) int { return (n + wordBits - 1) / wordBits }

// Len returns the number of bits in the vector.
func (v *Vector) Len() int { return v.n }

// Words returns the number of backing 64-bit words. This is the unit of
// work for the scan-cost accounting in internal/iostat.
func (v *Vector) Words() int { return len(v.words) }

// SizeBytes returns the in-memory size of the bit payload in bytes.
func (v *Vector) SizeBytes() int { return len(v.words) * 8 }

// Set sets bit i to 1.
func (v *Vector) Set(i int) {
	v.check(i)
	v.words[i/wordBits] |= 1 << (uint(i) % wordBits)
}

// Clear sets bit i to 0.
func (v *Vector) Clear(i int) {
	v.check(i)
	v.words[i/wordBits] &^= 1 << (uint(i) % wordBits)
}

// SetTo sets bit i to b.
func (v *Vector) SetTo(i int, b bool) {
	if b {
		v.Set(i)
	} else {
		v.Clear(i)
	}
}

// Get reports whether bit i is set.
func (v *Vector) Get(i int) bool {
	v.check(i)
	return v.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

func (v *Vector) check(i int) {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("bitvec: index %d out of range [0,%d)", i, v.n))
	}
}

// Append adds one bit at the end, growing the vector. Bitmap indexes use
// this for the paper's "updates without domain expansion": an insert
// appends one bit to each vector.
func (v *Vector) Append(b bool) {
	if v.n%wordBits == 0 {
		v.words = append(v.words, 0)
	}
	v.n++
	if b {
		v.Set(v.n - 1)
	}
}

// Grow extends the vector to n bits, padding with zeros. It is a no-op if
// the vector is already at least n bits long.
func (v *Vector) Grow(n int) {
	if n <= v.n {
		return
	}
	need := wordsFor(n)
	for len(v.words) < need {
		v.words = append(v.words, 0)
	}
	v.n = n
}

// Count returns the number of set bits (the cardinality of the row set).
func (v *Vector) Count() int {
	mPopcounts.Inc()
	c := 0
	for _, w := range v.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Any reports whether at least one bit is set.
func (v *Vector) Any() bool {
	for _, w := range v.words {
		if w != 0 {
			return true
		}
	}
	return false
}

// Clone returns a deep copy of v.
func (v *Vector) Clone() *Vector {
	w := &Vector{words: make([]uint64, len(v.words)), n: v.n}
	copy(w.words, v.words)
	return w
}

// Reset clears every bit without changing the length.
func (v *Vector) Reset() {
	for i := range v.words {
		v.words[i] = 0
	}
}

// Fill sets every bit to 1.
func (v *Vector) Fill() {
	for i := range v.words {
		v.words[i] = ^uint64(0)
	}
	v.trimTail()
}

// trimTail zeroes the bits beyond Len in the last word.
func (v *Vector) trimTail() {
	if v.n%wordBits != 0 && len(v.words) > 0 {
		v.words[len(v.words)-1] &= (1 << (uint(v.n) % wordBits)) - 1
	}
}

func (v *Vector) sameLen(o *Vector) {
	if v.n != o.n {
		panic(fmt.Sprintf("bitvec: length mismatch %d vs %d", v.n, o.n))
	}
}

// And sets v = v AND o and returns v.
func (v *Vector) And(o *Vector) *Vector {
	v.sameLen(o)
	mBulkOps.Inc()
	for i := range v.words {
		v.words[i] &= o.words[i]
	}
	return v
}

// Or sets v = v OR o and returns v.
func (v *Vector) Or(o *Vector) *Vector {
	v.sameLen(o)
	mBulkOps.Inc()
	for i := range v.words {
		v.words[i] |= o.words[i]
	}
	return v
}

// Xor sets v = v XOR o and returns v.
func (v *Vector) Xor(o *Vector) *Vector {
	v.sameLen(o)
	mBulkOps.Inc()
	for i := range v.words {
		v.words[i] ^= o.words[i]
	}
	return v
}

// AndNot sets v = v AND NOT o and returns v.
func (v *Vector) AndNot(o *Vector) *Vector {
	v.sameLen(o)
	mBulkOps.Inc()
	for i := range v.words {
		v.words[i] &^= o.words[i]
	}
	return v
}

// Not complements every bit of v in place and returns v.
func (v *Vector) Not() *Vector {
	mBulkOps.Inc()
	for i := range v.words {
		v.words[i] = ^v.words[i]
	}
	v.trimTail()
	return v
}

// CopyFrom overwrites v's bits with o's. Lengths must match.
func (v *Vector) CopyFrom(o *Vector) *Vector {
	v.sameLen(o)
	copy(v.words, o.words)
	return v
}

// And returns a AND b as a fresh vector.
func And(a, b *Vector) *Vector { return a.Clone().And(b) }

// Or returns a OR b as a fresh vector.
func Or(a, b *Vector) *Vector { return a.Clone().Or(b) }

// Xor returns a XOR b as a fresh vector.
func Xor(a, b *Vector) *Vector { return a.Clone().Xor(b) }

// AndNot returns a AND NOT b as a fresh vector.
func AndNot(a, b *Vector) *Vector { return a.Clone().AndNot(b) }

// Not returns NOT a as a fresh vector.
func Not(a *Vector) *Vector { return a.Clone().Not() }

// Equal reports whether two vectors have identical length and bits.
func (v *Vector) Equal(o *Vector) bool {
	if v.n != o.n {
		return false
	}
	for i := range v.words {
		if v.words[i] != o.words[i] {
			return false
		}
	}
	return true
}

// Indices returns the positions of all set bits in ascending order.
func (v *Vector) Indices() []int {
	out := make([]int, 0, v.Count())
	v.ForEach(func(i int) bool {
		out = append(out, i)
		return true
	})
	return out
}

// ForEach calls fn for every set bit in ascending order until fn returns
// false.
func (v *Vector) ForEach(fn func(i int) bool) {
	for wi, w := range v.words {
		for w != 0 {
			tz := bits.TrailingZeros64(w)
			if !fn(wi*wordBits + tz) {
				return
			}
			w &= w - 1
		}
	}
}

// NextSet returns the position of the first set bit at or after i, or -1 if
// there is none.
func (v *Vector) NextSet(i int) int {
	if i < 0 {
		i = 0
	}
	if i >= v.n {
		return -1
	}
	wi := i / wordBits
	w := v.words[wi] >> (uint(i) % wordBits)
	if w != 0 {
		return i + bits.TrailingZeros64(w)
	}
	for wi++; wi < len(v.words); wi++ {
		if v.words[wi] != 0 {
			return wi*wordBits + bits.TrailingZeros64(v.words[wi])
		}
	}
	return -1
}

// Rank returns the number of set bits in [0, i). Rank(Len()) == Count().
func (v *Vector) Rank(i int) int {
	mPopcounts.Inc()
	if i < 0 || i > v.n {
		panic(fmt.Sprintf("bitvec: rank index %d out of range [0,%d]", i, v.n))
	}
	full := i / wordBits
	c := 0
	for _, w := range v.words[:full] {
		c += bits.OnesCount64(w)
	}
	if rem := uint(i) % wordBits; rem != 0 {
		c += bits.OnesCount64(v.words[full] & ((1 << rem) - 1))
	}
	return c
}

// Select returns the position of the j-th set bit (0-based), or -1 if the
// vector has fewer than j+1 set bits.
func (v *Vector) Select(j int) int {
	if j < 0 {
		return -1
	}
	for wi, w := range v.words {
		c := bits.OnesCount64(w)
		if j < c {
			// Walk the word.
			for ; ; j-- {
				tz := bits.TrailingZeros64(w)
				if j == 0 {
					return wi*wordBits + tz
				}
				w &= w - 1
			}
		}
		j -= c
	}
	return -1
}

// Sparsity returns the fraction of bits that are zero (the paper's sparsity
// measure: (m-1)/m on average for a simple bitmap vector, about 1/2 for an
// encoded one).
func (v *Vector) Sparsity() float64 {
	if v.n == 0 {
		return 0
	}
	return float64(v.n-v.Count()) / float64(v.n)
}

// String renders the vector as a 0/1 string, position 0 first. Intended for
// tests and small examples only.
func (v *Vector) String() string {
	var sb strings.Builder
	sb.Grow(v.n)
	for i := 0; i < v.n; i++ {
		if v.Get(i) {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	return sb.String()
}

// MarshalBinary encodes the vector as an 8-byte little-endian length (in
// bits) followed by the backing words. It implements
// encoding.BinaryMarshaler.
func (v *Vector) MarshalBinary() ([]byte, error) {
	out := make([]byte, 8+8*len(v.words))
	putUint64(out, uint64(v.n))
	for i, w := range v.words {
		putUint64(out[8+8*i:], w)
	}
	return out, nil
}

// UnmarshalBinary decodes data produced by MarshalBinary, validating the
// length and the all-zero tail invariant. It implements
// encoding.BinaryUnmarshaler.
func (v *Vector) UnmarshalBinary(data []byte) error {
	if len(data) < 8 {
		return fmt.Errorf("bitvec: truncated header (%d bytes)", len(data))
	}
	n := getUint64(data)
	if n > uint64(1)<<40 {
		return fmt.Errorf("bitvec: implausible length %d", n)
	}
	want := wordsFor(int(n))
	if len(data) != 8+8*want {
		return fmt.Errorf("bitvec: %d bits need %d payload bytes, got %d", n, 8*want, len(data)-8)
	}
	words := make([]uint64, want)
	for i := range words {
		words[i] = getUint64(data[8+8*i:])
	}
	if rem := n % wordBits; rem != 0 && want > 0 {
		if words[want-1]&^((1<<rem)-1) != 0 {
			return fmt.Errorf("bitvec: nonzero bits beyond length %d", n)
		}
	}
	v.words = words
	v.n = int(n)
	return nil
}

func putUint64(b []byte, x uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(x >> (8 * uint(i)))
	}
}

func getUint64(b []byte) uint64 {
	var x uint64
	for i := 0; i < 8; i++ {
		x |= uint64(b[i]) << (8 * uint(i))
	}
	return x
}

// Parse builds a vector from a 0/1 string as produced by String.
func Parse(s string) (*Vector, error) {
	v := New(len(s))
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '1':
			v.Set(i)
		case '0':
		default:
			return nil, fmt.Errorf("bitvec: invalid character %q at %d", s[i], i)
		}
	}
	return v, nil
}
