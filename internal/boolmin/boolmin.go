// Package boolmin implements the "logical reduction" of retrieval Boolean
// functions from Section 2.2 of Wu & Buchmann (ICDE 1998).
//
// A retrieval function for a selection "A IN {v0..v_{n-1}}" starts as a sum
// of k-variable min-terms, one per selected value (k = number of bitmap
// vectors). Minimizing that sum of products — here with the classic
// Quine–McCluskey procedure, including don't-care terms (footnote 3 of the
// paper) — shrinks the number of *distinct* bitmap vectors the expression
// references, which is the paper's cost metric for query processing
// (c_e = number of bitmap vectors accessed after logical reduction).
// Quine–McCluskey's merge table is kept as word-sparse bitsets over the code
// space, one per mask of freed variables, so a merge step is a shift and an
// AND of 64-bit words, and the cover is chosen over per-prime coverage
// bitsets.
package boolmin

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"
)

// MaxVars bounds the number of Boolean variables (bitmap vectors) an
// expression may reference. 30 bits keeps every minterm in a uint32 with
// room to spare; an encoded bitmap index over a domain of a billion values
// needs only 30 vectors.
const MaxVars = 30

// Cube is a product term (implicant) over k variables. Variable i
// corresponds to bit i. For each variable whose Mask bit is 0 the cube
// constrains it: positive literal if the Value bit is 1, negated literal if
// 0. Mask bit 1 means the variable does not appear in the product.
//
// A cube with Mask == all-ones is the constant true.
type Cube struct {
	Value uint32
	Mask  uint32
}

// Covers reports whether the cube contains the point x.
func (c Cube) Covers(x uint32) bool {
	return (x^c.Value)&^c.Mask == 0
}

// Literals returns the number of literals in the cube given k variables.
func (c Cube) Literals(k int) int {
	return k - bits.OnesCount32(c.Mask&kmask(k))
}

// Size returns the number of points covered by the cube within k variables.
func (c Cube) Size(k int) int {
	return 1 << bits.OnesCount32(c.Mask&kmask(k))
}

func kmask(k int) uint32 {
	if k <= 0 {
		return 0
	}
	if k >= 32 {
		return ^uint32(0)
	}
	return (1 << uint(k)) - 1
}

// Expr is a sum of products: the disjunction of its cubes. The empty Expr
// is the constant false.
type Expr struct {
	K     int
	Cubes []Cube
}

// Vars returns the set of variables referenced by the expression as a
// bitmask: bit i set means bitmap vector B_i must be read to evaluate it.
func (e Expr) Vars() uint32 {
	var used uint32
	for _, c := range e.Cubes {
		used |= ^c.Mask & kmask(e.K)
	}
	return used
}

// AccessCost returns the number of distinct bitmap vectors the expression
// reads — the paper's c_e for this selection.
func (e Expr) AccessCost() int {
	return bits.OnesCount32(e.Vars())
}

// Eval reports whether the expression is true at point x.
func (e Expr) Eval(x uint32) bool {
	for _, c := range e.Cubes {
		if c.Covers(x) {
			return true
		}
	}
	return false
}

// String renders the expression in the paper's notation, e.g.
// "B2'B1B0' + B2B1'" (Bi = variable i, ' = negation). The constant false
// renders as "0", constant true as "1".
func (e Expr) String() string {
	if len(e.Cubes) == 0 {
		return "0"
	}
	parts := make([]string, 0, len(e.Cubes))
	for _, c := range e.Cubes {
		var sb strings.Builder
		for i := e.K - 1; i >= 0; i-- {
			bit := uint32(1) << uint(i)
			if c.Mask&bit != 0 {
				continue
			}
			fmt.Fprintf(&sb, "B%d", i)
			if c.Value&bit == 0 {
				sb.WriteByte('\'')
			}
		}
		if sb.Len() == 0 {
			return "1" // a cube with no literals is the constant true
		}
		parts = append(parts, sb.String())
	}
	return strings.Join(parts, " + ")
}

// FromMinterms builds the unreduced sum of min-terms for the given on-set,
// exactly as Definition 2.1 constructs retrieval functions.
func FromMinterms(k int, on []uint32) Expr {
	cubes := make([]Cube, len(on))
	for i, m := range on {
		cubes[i] = Cube{Value: m & kmask(k), Mask: 0}
	}
	return Expr{K: k, Cubes: cubes}
}

// IntervalCover returns the code interval [lo, hi] over k variables as a
// sum of aligned subcubes, with no minimization: from lo upward, each cube
// is the largest aligned block that starts at the next uncovered code and
// ends at or below hi. Each cube fixes only its block's common high bits,
// so it is a Theorem 2.2/2.3 retrieval function of its own. The cover has
// at most max(1, 2(k-1)) cubes, in ascending code order, and the
// MSB-first trie Compile builds shares their common high-bit prefixes. An
// empty interval (lo > hi) is the constant false; the whole code space is
// the constant true.
func IntervalCover(k int, lo, hi uint32) Expr {
	if k < 0 || k > MaxVars {
		panic(fmt.Sprintf("boolmin: k=%d out of range [0,%d]", k, MaxVars))
	}
	if hi > kmask(k) {
		panic(fmt.Sprintf("boolmin: interval bound %d outside %d-bit codes", hi, k))
	}
	e := Expr{K: k}
	for lo <= hi {
		size := uint32(1) << uint(k) // the block starting at 0 may span every code
		if lo != 0 {
			size = lo & -lo
		}
		for size-1 > hi-lo {
			size >>= 1
		}
		e.Cubes = append(e.Cubes, Cube{Value: lo, Mask: size - 1})
		if hi-lo == size-1 {
			break
		}
		lo += size
	}
	return e
}

// Minimize runs Quine–McCluskey over the on-set with optional don't-cares
// and returns a reduced sum-of-products expression equivalent to the on-set
// on all points outside dc. Points may not appear in both on and dc.
//
// The merge table is kept as bitsets rather than as a list of cubes: for
// each mask of freed variables, the values whose cube lies inside on ∪ dc
// form one sparse bitset over the code space, and freeing one more variable
// is a shift and an AND of 64-bit words (see mergeTable.visit).
//
// Cover selection takes all essential prime implicants, then greedily adds
// prime implicants preferring (1) most uncovered minterms, (2) fewest newly
// referenced variables, (3) fewest literals, the first in (Mask, Value)
// order winning a tie — the tie-breaks bias the cover toward the paper's
// objective of reading few bitmap vectors. The cubes come out in (Mask,
// Value) order.
func Minimize(k int, on, dc []uint32) Expr {
	if k < 0 || k > MaxVars {
		panic(fmt.Sprintf("boolmin: k=%d out of range [0,%d]", k, MaxVars))
	}
	km := kmask(k)
	onset := dedup(on, km)
	dcset := dedup(dc, km)
	if len(onset) == 0 {
		return Expr{K: k}
	}
	if len(onset)+len(dcset) == 1<<uint(k) && len(dcset) == 0 {
		return Expr{K: k, Cubes: []Cube{{Value: 0, Mask: km}}}
	}
	return Expr{K: k, Cubes: selectCover(k, primeImplicants(k, onset, dcset), onset)}
}

// lowHalf[i] selects the positions of a 64-bit word whose bit i is clear.
var lowHalf = [6]uint64{
	0x5555555555555555, 0x3333333333333333, 0x0f0f0f0f0f0f0f0f,
	0x00ff00ff00ff00ff, 0x0000ffff0000ffff, 0x00000000ffffffff,
}

// mergeTable walks the merge table depth first. For a mask of freed
// variables with at least one implicant, the values v whose cube
// {Value: v, Mask: mask} lies inside on ∪ dc form a sparse bitset over the
// code space; set s holds the words s.lo..s.hi-1 of idx and bits: bit b of
// bits[q] stands for the value 64·idx[q] + b, word indices increase, and no
// word is zero. The sets of masks still to visit wait in sets, their words
// at the end of idx and bits.
type mergeTable struct {
	k      int
	sets   []maskSet
	idx    []uint32
	bits   []uint64
	merged []uint64 // per word of the set being visited: values that are not prime
	primes []Cube
}

// maskSet is the set of one mask of freed variables in a mergeTable.
type maskSet struct {
	mask   uint32
	lo, hi int
}

// primeImplicants returns every prime implicant of on ∪ dc in (Mask, Value)
// order; on and dc are sorted and without repeats.
func primeImplicants(k int, on, dc []uint32) []Cube {
	n := len(on) + len(dc) // the words of the empty mask, at most
	t := mergeTable{k: k, idx: make([]uint32, 0, n), bits: make([]uint64, 0, n)}
	t.addCodes(on, dc)
	t.visit(maskSet{0, 0, len(t.idx)})
	return t.primes
}

// addCodes fills the words of the empty mask with the sorted codes of on
// and dc, which must be disjoint.
func (t *mergeTable) addCodes(on, dc []uint32) {
	for i, j := 0, 0; i < len(on) || j < len(dc); {
		var x uint32
		switch {
		case j == len(dc) || i < len(on) && on[i] < dc[j]:
			x, i = on[i], i+1
		case i == len(on) || dc[j] < on[i]:
			x, j = dc[j], j+1
		default:
			panic(fmt.Sprintf("boolmin: minterm %d in both on-set and don't-care set", on[i]))
		}
		if n := len(t.idx); n > 0 && t.idx[n-1] == x>>6 {
			t.bits[n-1] |= 1 << (x & 63)
		} else {
			t.idx = append(t.idx, x>>6)
			t.bits = append(t.bits, 1<<(x&63))
		}
	}
}

// visit emits the primes of set s in increasing value order, then visits
// the masks that free one more variable below s's lowest freed one. That
// makes each mask with an implicant the child of exactly one mask (the one
// without its lowest freed variable), and the walk's pre-order is
// increasing mask order, so the primes come out in (Mask, Value) order.
//
// Freeing variable i keeps a value v when v and v + 2^i both stay: on the
// positions with bit i clear, x & (x >> 2^i) within a word for i < 6, and
// word j AND word j + 2^(i−6) above that. Expanded back over i, the result
// holds the values whose cube lies inside one with i freed too, so a value
// is prime when no freeable variable takes it in.
func (t *mergeTable) visit(s maskSet) {
	low := t.k
	if s.mask != 0 {
		low = bits.TrailingZeros32(s.mask)
	}
	first, end := len(t.sets), len(t.idx)
	idx, w := t.idx[s.lo:s.hi], t.bits[s.lo:s.hi]
	merged := append(t.merged[:0], make([]uint64, len(w))...)
	for i := 0; i < t.k; i++ {
		if s.mask&(1<<i) != 0 {
			continue
		}
		child := len(t.idx)
		if i < 6 {
			sh, half := uint(1)<<i, lowHalf[i]
			for q, x := range w {
				if y := x & (x >> sh) & half; y != 0 {
					merged[q] |= y | y<<sh
					if i < low {
						t.idx = append(t.idx, idx[q])
						t.bits = append(t.bits, y)
					}
				}
			}
		} else if d := uint32(1) << (i - 6); idx[len(idx)-1]-idx[0] >= d {
			r := 0
			for q, j := range idx {
				if j&d != 0 {
					continue
				}
				for r < len(idx) && idx[r] < j+d {
					r++
				}
				if r == len(idx) {
					break
				}
				if y := w[q] & w[r]; idx[r] == j+d && y != 0 {
					merged[q] |= y
					merged[r] |= y
					if i < low {
						t.idx = append(t.idx, j)
						t.bits = append(t.bits, y)
					}
				}
			}
		}
		if len(t.idx) > child {
			t.sets = append(t.sets, maskSet{s.mask | 1<<i, child, len(t.idx)})
		}
	}
	for q, x := range w {
		for x &^= merged[q]; x != 0; x &= x - 1 {
			v := idx[q]<<6 | uint32(bits.TrailingZeros64(x))
			t.primes = append(t.primes, Cube{Value: v, Mask: s.mask})
		}
	}
	t.merged = merged
	for c, last := first, len(t.sets); c < last; c++ {
		t.visit(t.sets[c])
	}
	t.sets, t.idx, t.bits = t.sets[:first], t.idx[:end], t.bits[:end]
}

// selectCover picks a subset of prime implicants covering every on-set
// minterm: essential primes first, then a greedy completion. Each prime
// gets one coverage bitset over the on-set's indices, so a greedy round
// counts a prime's newly covered minterms a word at a time; primes that
// cover no minterm are dropped first (the greedy never picks them, and they
// are never essential).
func selectCover(k int, primes []Cube, onset []uint32) []Cube {
	nw := (len(onset) + 63) / 64
	rows := make([]uint64, 0, nw*len(onset))
	kept := primes[:0]
	for _, p := range primes {
		start := len(rows)
		rows = append(rows, make([]uint64, nw)...)
		row, hit := rows[start:], false
		top := p.Value | p.Mask
		for mi, _ := slices.BinarySearch(onset, p.Value); mi < len(onset) && onset[mi] <= top; mi++ {
			if p.Covers(onset[mi]) {
				row[mi>>6] |= 1 << (mi & 63)
				hit = true
			}
		}
		if !hit {
			rows = rows[:start]
			continue
		}
		kept = append(kept, p)
	}
	primes = kept
	rowOf := func(pi int) []uint64 { return rows[pi*nw : (pi+1)*nw] }

	// A minterm in once but not in twice has exactly one coverer, which is
	// then essential.
	once, twice, covered := make([]uint64, nw), make([]uint64, nw), make([]uint64, nw)
	for pi := range primes {
		for w, x := range rowOf(pi) {
			twice[w] |= once[w] & x
			once[w] |= x
		}
	}
	chosen := make([]bool, len(primes))
	usedVars, remaining, picked := uint32(0), len(onset), 0
	choose := func(pi int) {
		chosen[pi] = true
		picked++
		usedVars |= ^primes[pi].Mask & kmask(k)
		for w, x := range rowOf(pi) {
			remaining -= bits.OnesCount64(x &^ covered[w])
			covered[w] |= x
		}
	}
	for pi := range primes {
		for w, x := range rowOf(pi) {
			if x&^twice[w] != 0 {
				choose(pi)
				break
			}
		}
	}

	for remaining > 0 {
		best, bestCov, bestNewVars, bestLits := -1, -1, 0, 0
		for pi, p := range primes {
			if chosen[pi] {
				continue
			}
			cov := 0
			for w, x := range rowOf(pi) {
				cov += bits.OnesCount64(x &^ covered[w])
			}
			if cov == 0 {
				continue
			}
			newVars := bits.OnesCount32(^p.Mask & kmask(k) &^ usedVars)
			lits := p.Literals(k)
			if best == -1 ||
				cov > bestCov ||
				(cov == bestCov && newVars < bestNewVars) ||
				(cov == bestCov && newVars == bestNewVars && lits < bestLits) {
				best, bestCov, bestNewVars, bestLits = pi, cov, newVars, lits
			}
		}
		if best == -1 {
			panic("boolmin: internal error: uncoverable minterm")
		}
		choose(best)
	}

	out := make([]Cube, 0, picked)
	for pi, c := range chosen {
		if c {
			out = append(out, primes[pi])
		}
	}
	return out
}

// MinimalAccessCost returns the smallest number of distinct variables any
// sum-of-products cover of (on, dc) can reference. It searches subsets of
// variables in increasing size and checks whether the on/off separation is
// expressible using only those variables: projecting on- and off-set points
// onto the subset must produce disjoint images. Exponential in k — intended
// for verifying Theorems 2.2/2.3 on small domains in tests.
func MinimalAccessCost(k int, on, dc []uint32) int {
	km := kmask(k)
	onset := dedup(on, km)
	if len(onset) == 0 {
		return 0
	}
	isOn := make(map[uint32]bool, len(onset))
	for _, m := range onset {
		isOn[m] = true
	}
	isDC := make(map[uint32]bool, len(dc))
	for _, m := range dedup(dc, km) {
		isDC[m] = true
	}
	var offset []uint32
	for x := uint32(0); x < 1<<uint(k); x++ {
		if !isOn[x] && !isDC[x] {
			offset = append(offset, x)
		}
	}
	if len(offset) == 0 {
		return 0 // constant true
	}
	for size := 0; size <= k; size++ {
		if subsetWorks(k, size, onset, offset) {
			return size
		}
	}
	return k
}

// subsetWorks reports whether some variable subset of the given size
// separates onset from offset.
func subsetWorks(k, size int, onset, offset []uint32) bool {
	var try func(start int, cur uint32, left int) bool
	try = func(start int, cur uint32, left int) bool {
		if left == 0 {
			onProj := make(map[uint32]bool, len(onset))
			for _, m := range onset {
				onProj[m&cur] = true
			}
			for _, m := range offset {
				if onProj[m&cur] {
					return false
				}
			}
			return true
		}
		for i := start; i <= k-left; i++ {
			if try(i+1, cur|1<<uint(i), left-1) {
				return true
			}
		}
		return false
	}
	return try(0, 0, size)
}

// Equivalent reports whether two expressions over the same K agree on every
// point outside the don't-care set.
func Equivalent(a, b Expr, dc []uint32) bool {
	if a.K != b.K {
		return false
	}
	isDC := make(map[uint32]bool, len(dc))
	for _, m := range dc {
		isDC[m&kmask(a.K)] = true
	}
	for x := uint32(0); x < 1<<uint(a.K); x++ {
		if isDC[x] {
			continue
		}
		if a.Eval(x) != b.Eval(x) {
			return false
		}
	}
	return true
}

// dedup returns xs masked to km, sorted and without repeats, in a new
// slice.
func dedup(xs []uint32, km uint32) []uint32 {
	out := make([]uint32, len(xs))
	for i, x := range xs {
		out[i] = x & km
	}
	slices.Sort(out)
	return slices.Compact(out)
}
