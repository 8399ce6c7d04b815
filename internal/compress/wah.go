// Package compress implements a 64-bit word-aligned hybrid (WAH) run-length
// compressed bitmap. Section 4 of the paper points at run-length
// compression as the standard remedy for the sparsity of simple bitmap
// vectors on high-cardinality domains; this package lets the benchmark
// harness quantify that remedy against the encoded bitmap index's denser
// (~50% ones) vectors, where compression buys little.
//
// Layout: each 64-bit word is either a literal (MSB 0, low 63 bits of
// payload) or a fill (MSB 1, bit 62 the fill bit, low 62 bits the count of
// consecutive 63-bit groups of that fill).
package compress

import (
	"fmt"
	"math/bits"

	"repro/internal/bitvec"
	"repro/internal/obs"
	"repro/internal/reorder"
)

// Compression telemetry: uncompressed vs compressed word volume. The
// running ratio out/in is the fleet-wide compression ratio; near 1.0 on
// encoded vectors confirms the paper's ~50%-ones density argument.
var (
	mWahWordsIn = obs.Default().Counter("ebi_wah_words_in_total",
		"Uncompressed 64-bit words presented to the WAH compressor.")
	mWahWordsOut = obs.Default().Counter("ebi_wah_words_out_total",
		"Compressed words the WAH compressor produced.")
)

const (
	groupBits      = 63
	flagFill       = uint64(1) << 63
	fillOne        = uint64(1) << 62
	countMask      = fillOne - 1
	literalAllOnes = (uint64(1) << groupBits) - 1
)

// Vector is a WAH-compressed bit vector.
type Vector struct {
	words []uint64
	n     int // logical length in bits
}

// Len returns the logical number of bits.
func (v *Vector) Len() int { return v.n }

// SizeBytes returns the compressed payload size.
func (v *Vector) SizeBytes() int { return len(v.words) * 8 }

// Words returns the number of compressed words.
func (v *Vector) Words() int { return len(v.words) }

// Compress converts a plain bit vector into WAH form, lifting each 63-bit
// group from at most two of src's words.
func Compress(src *bitvec.Vector) *Vector {
	v := &Vector{n: src.Len()}
	words := src.BlockWords(0, src.Words())
	nGroups := (src.Len() + groupBits - 1) / groupBits
	for g := 0; g < nGroups; g++ {
		v.appendGroup(groupAt(words, g))
	}
	mWahWordsIn.Add(uint64(src.Words()))
	mWahWordsOut.Add(uint64(len(v.words)))
	return v
}

// CompressPermuted compresses src as if its bits were reordered so bit i
// of the result is src bit perm[i] — the WAH build path of a row-reorder
// pass, producing the compressed form directly without materializing the
// permuted vector. perm must be a bijection on [0, src.Len()).
func CompressPermuted(src *bitvec.Vector, perm []int) (*Vector, error) {
	if err := reorder.CheckPermutation(perm, src.Len()); err != nil {
		return nil, err
	}
	v := &Vector{n: src.Len()}
	nGroups := (src.Len() + groupBits - 1) / groupBits
	for g := 0; g < nGroups; g++ {
		var w uint64
		base := g * groupBits
		end := base + groupBits
		if end > src.Len() {
			end = src.Len()
		}
		for i := base; i < end; i++ {
			if src.Get(perm[i]) {
				w |= 1 << uint(i-base)
			}
		}
		v.appendGroup(w)
	}
	mWahWordsIn.Add(uint64(src.Words()))
	mWahWordsOut.Add(uint64(len(v.words)))
	return v, nil
}

// groupAt returns bits [63g, 63g+63) of a dense vector's words. A group
// starting at bit 0 or 1 of a word lies in that word; any other reaches
// into the next. A dense vector's bits past its length are zero, so the
// tail group comes out zero-padded.
func groupAt(words []uint64, g int) uint64 {
	bit := g * groupBits
	wi, off := bit>>6, uint(bit&63)
	w := words[wi] >> off
	if off > 1 && wi+1 < len(words) {
		w |= words[wi+1] << (64 - off)
	}
	return w & literalAllOnes
}

// appendGroup adds one 63-bit literal group, coalescing runs of all-zero or
// all-one groups into fill words.
func (v *Vector) appendGroup(g uint64) {
	switch g {
	case 0:
		v.appendFill(false, 1)
	case literalAllOnes:
		v.appendFill(true, 1)
	default:
		v.words = append(v.words, g)
	}
}

func (v *Vector) appendFill(bit bool, count uint64) {
	if count == 0 {
		return
	}
	if len(v.words) > 0 {
		last := v.words[len(v.words)-1]
		if last&flagFill != 0 && ((last&fillOne != 0) == bit) {
			v.words[len(v.words)-1] = last + count // counts are in the low bits
			return
		}
	}
	w := flagFill | count
	if bit {
		w |= fillOne
	}
	v.words = append(v.words, w)
}

// Decompress expands the vector back to a plain bit vector.
func (v *Vector) Decompress() *bitvec.Vector {
	out := bitvec.New(v.n)
	v.OrInto(out)
	return out
}

// OrInto ORs the vector into dst, a dense vector of the same length. It is
// the one WAH decode loop: zero fills are skipped, one fills set whole
// words (clamped to Len), and each literal lands at its 63-bit offset in
// at most two words, so the work follows the compressed size. It ends with
// dst.TrimTail, which drops the phantom ones a Not leaves in the tail
// group.
func (v *Vector) OrInto(dst *bitvec.Vector) {
	if dst.Len() != v.n {
		panic(fmt.Sprintf("compress: length mismatch %d vs %d", v.n, dst.Len()))
	}
	out := dst.BlockWords(0, dst.Words())
	pos := 0 // first bit of the next group
	for _, w := range v.words {
		if w&flagFill != 0 {
			span := int(w&countMask) * groupBits
			if w&fillOne != 0 {
				setBits(out, pos, min(pos+span, v.n))
			}
			pos += span
			continue
		}
		wi, off := pos>>6, uint(pos&63)
		out[wi] |= w << off
		if off > 1 && wi+1 < len(out) {
			out[wi+1] |= w >> (64 - off)
		}
		pos += groupBits
	}
	dst.TrimTail()
}

// setBits sets bits [lo, hi) of dense words.
func setBits(out []uint64, lo, hi int) {
	if lo >= hi {
		return
	}
	lw, hw := lo>>6, (hi-1)>>6
	first := ^uint64(0) << uint(lo&63)
	last := ^uint64(0) >> uint(63-((hi-1)&63))
	if lw == hw {
		out[lw] |= first & last
		return
	}
	out[lw] |= first
	for i := lw + 1; i < hw; i++ {
		out[i] = ^uint64(0)
	}
	out[hw] |= last
}

// Count returns the number of set bits without decompressing.
func (v *Vector) Count() int {
	c := 0
	pos := 0
	for _, w := range v.words {
		if w&flagFill != 0 {
			count := int(w & countMask)
			if w&fillOne != 0 {
				bitsHere := count * groupBits
				if pos+bitsHere > v.n {
					bitsHere = v.n - pos
				}
				c += bitsHere
			}
			pos += count * groupBits
			continue
		}
		if pos+groupBits > v.n {
			w &= (1 << uint(v.n-pos)) - 1
		}
		c += bits.OnesCount64(w &^ flagFill)
		pos += groupBits
	}
	return c
}

// decoder iterates a compressed vector group by group, exposing pending
// fill runs so operations can skip aligned fills in bulk.
type decoder struct {
	words []uint64
	wi    int
	// Pending fill state.
	fillRemaining uint64
	fillBit       bool
}

func (d *decoder) done() bool { return d.fillRemaining == 0 && d.wi >= len(d.words) }

// peek primes the decoder so either fillRemaining > 0 or the next word is a
// literal.
func (d *decoder) prime() {
	for d.fillRemaining == 0 && d.wi < len(d.words) {
		w := d.words[d.wi]
		if w&flagFill != 0 {
			d.fillRemaining = w & countMask
			d.fillBit = w&fillOne != 0
			d.wi++
			if d.fillRemaining == 0 {
				continue // defensive: empty fill
			}
			return
		}
		return
	}
}

// nextLiteral consumes one group and returns it as a literal payload.
func (d *decoder) nextLiteral() uint64 {
	d.prime()
	if d.fillRemaining > 0 {
		d.fillRemaining--
		if d.fillBit {
			return literalAllOnes
		}
		return 0
	}
	w := d.words[d.wi]
	d.wi++
	return w
}

// fillRun returns the current pending fill run (0 if next is a literal).
func (d *decoder) fillRun() (uint64, bool) {
	d.prime()
	return d.fillRemaining, d.fillBit
}

func (d *decoder) skipFill(groups uint64) {
	d.fillRemaining -= groups
}

// binop applies a bitwise group operation to two compressed vectors of
// equal length, producing a compressed result. Aligned fill runs are
// processed in bulk, so the cost is proportional to the compressed sizes.
func binop(a, b *Vector, op func(x, y uint64) uint64) *Vector {
	if a.n != b.n {
		panic(fmt.Sprintf("compress: length mismatch %d vs %d", a.n, b.n))
	}
	out := &Vector{n: a.n}
	da := &decoder{words: a.words}
	db := &decoder{words: b.words}
	total := uint64((a.n + groupBits - 1) / groupBits)
	for g := uint64(0); g < total; {
		ra, bitA := da.fillRun()
		rb, bitB := db.fillRun()
		if ra > 0 && rb > 0 {
			run := ra
			if rb < run {
				run = rb
			}
			if g+run > total {
				run = total - g
			}
			var xa, xb uint64
			if bitA {
				xa = literalAllOnes
			}
			if bitB {
				xb = literalAllOnes
			}
			res := op(xa, xb) & literalAllOnes
			switch res {
			case 0:
				out.appendFill(false, run)
			case literalAllOnes:
				out.appendFill(true, run)
			default:
				for i := uint64(0); i < run; i++ {
					out.appendGroup(res)
				}
			}
			da.skipFill(run)
			db.skipFill(run)
			g += run
			continue
		}
		out.appendGroup(op(da.nextLiteral(), db.nextLiteral()) & literalAllOnes)
		g++
	}
	return out
}

// And returns a AND b.
func And(a, b *Vector) *Vector { return binop(a, b, func(x, y uint64) uint64 { return x & y }) }

// Or returns a OR b.
func Or(a, b *Vector) *Vector { return binop(a, b, func(x, y uint64) uint64 { return x | y }) }

// Xor returns a XOR b.
func Xor(a, b *Vector) *Vector { return binop(a, b, func(x, y uint64) uint64 { return x ^ y }) }

// AndNot returns a AND NOT b.
func AndNot(a, b *Vector) *Vector { return binop(a, b, func(x, y uint64) uint64 { return x &^ y }) }

// Not returns the complement of a (within its logical length).
func Not(a *Vector) *Vector {
	out := &Vector{n: a.n}
	d := &decoder{words: a.words}
	total := uint64((a.n + groupBits - 1) / groupBits)
	for g := uint64(0); g < total; {
		if run, bit := d.fillRun(); run > 0 {
			if g+run > total {
				run = total - g
			}
			out.appendFill(!bit, run)
			d.skipFill(run)
			g += run
			continue
		}
		out.appendGroup(^d.nextLiteral() & literalAllOnes)
		g++
	}
	// Bits beyond Len must stay zero for Count to be exact; the tail
	// group keeps phantom ones only in positions >= n, which Count and
	// Decompress already mask. Nothing further to do.
	return out
}

// CompressionRatio returns compressed size / uncompressed size; values
// below 1 mean compression wins.
func (v *Vector) CompressionRatio() float64 {
	raw := (v.n + 63) / 64 * 8
	if raw == 0 {
		return 1
	}
	return float64(v.SizeBytes()) / float64(raw)
}
