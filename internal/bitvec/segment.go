package bitvec

import (
	"fmt"
	"math/bits"
)

// Segments. A segment is a fixed 64Ki-bit (1024-word) slice of a vector.
// The parallel execution engine runs the fused kernel
// (boolmin.Program.EvalParallelInto) once per segment's word range, so
// independent workers write disjoint ranges of a shared destination
// without synchronization; the pagestore heatmap buckets page touches by
// segment. PopcountRange counts one range: summed over every segment it
// equals Count.
const (
	// SegmentBits is the fixed segment size in bits. 64Ki bits = 8KiB of
	// payload per segment per vector: large enough that the fork/join
	// overhead amortizes, small enough that even mid-sized tables split
	// into more segments than cores.
	SegmentBits = 64 * 1024
	// SegmentWords is the segment size in backing 64-bit words.
	SegmentWords = SegmentBits / wordBits
)

// NumSegments returns how many SegmentBits-sized segments cover n bits
// (0 for n <= 0).
func NumSegments(n int) int {
	if n <= 0 {
		return 0
	}
	return (wordsFor(n) + SegmentWords - 1) / SegmentWords
}

// Segments returns the number of segments covering v.
func (v *Vector) Segments() int { return NumSegments(v.n) }

// SegmentSpan returns the word range [lo, hi) of segment seg. The final
// segment is clamped to the vector's word count (the tail segment may be
// short).
func (v *Vector) SegmentSpan(seg int) (lo, hi int) {
	if seg < 0 || seg >= v.Segments() {
		panic(fmt.Sprintf("bitvec: segment %d out of range [0,%d)", seg, v.Segments()))
	}
	lo = seg * SegmentWords
	hi = lo + SegmentWords
	if hi > len(v.words) {
		hi = len(v.words)
	}
	return lo, hi
}

// PopcountRange returns the number of set bits in words [lo, hi). Summing
// it over all segments equals Count (the tail beyond Len is always zero).
func (v *Vector) PopcountRange(lo, hi int) int {
	if lo < 0 || hi < lo || hi > len(v.words) {
		panic(fmt.Sprintf("bitvec: word range [%d,%d) out of range [0,%d]", lo, hi, len(v.words)))
	}
	mSegPopcounts.Inc()
	c := 0
	for _, w := range v.words[lo:hi] {
		c += bits.OnesCount64(w)
	}
	return c
}
