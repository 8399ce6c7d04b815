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
package boolmin

import (
	"fmt"
	"math/bits"
	"sort"
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
// Cover selection takes all essential prime implicants, then greedily adds
// prime implicants preferring (1) most uncovered minterms, (2) fewest newly
// referenced variables, (3) fewest literals — the tie-breaks bias the cover
// toward the paper's objective of reading few bitmap vectors.
func Minimize(k int, on, dc []uint32) Expr {
	if k < 0 || k > MaxVars {
		panic(fmt.Sprintf("boolmin: k=%d out of range [0,%d]", k, MaxVars))
	}
	km := kmask(k)
	onset := dedup(on, km)
	dcset := dedup(dc, km)
	for _, m := range onset {
		if _, isDC := index(dcset, m); isDC {
			panic(fmt.Sprintf("boolmin: minterm %d in both on-set and don't-care set", m))
		}
	}
	if len(onset) == 0 {
		return Expr{K: k}
	}
	if len(onset)+len(dcset) == 1<<uint(k) && len(dcset) == 0 {
		return Expr{K: k, Cubes: []Cube{{Value: 0, Mask: km}}}
	}

	primes := primeImplicants(k, append(append([]uint32{}, onset...), dcset...))
	return Expr{K: k, Cubes: selectCover(k, primes, onset)}
}

// primeImplicants computes all prime implicants of the union set via the
// tabular merging procedure.
func primeImplicants(k int, terms []uint32) []Cube {
	type entry struct {
		cube   Cube
		merged bool
	}
	km := kmask(k)
	cur := make(map[Cube]*entry, len(terms))
	for _, t := range terms {
		c := Cube{Value: t & km, Mask: 0}
		cur[c] = &entry{cube: c}
	}
	var primes []Cube
	for len(cur) > 0 {
		// Group by popcount of value for the adjacency scan.
		groups := make(map[int][]*entry)
		for _, e := range cur {
			groups[bits.OnesCount32(e.cube.Value)] = append(groups[bits.OnesCount32(e.cube.Value)], e)
		}
		next := make(map[Cube]*entry)
		for pc, g := range groups {
			hi := groups[pc+1]
			for _, a := range g {
				for _, b := range hi {
					if a.cube.Mask != b.cube.Mask {
						continue
					}
					diff := a.cube.Value ^ b.cube.Value
					if bits.OnesCount32(diff) != 1 {
						continue
					}
					a.merged, b.merged = true, true
					nc := Cube{Value: a.cube.Value &^ diff, Mask: a.cube.Mask | diff}
					if _, ok := next[nc]; !ok {
						next[nc] = &entry{cube: nc}
					}
				}
			}
		}
		for _, e := range cur {
			if !e.merged {
				primes = append(primes, e.cube)
			}
		}
		cur = next
	}
	sort.Slice(primes, func(i, j int) bool {
		if primes[i].Mask != primes[j].Mask {
			return primes[i].Mask < primes[j].Mask
		}
		return primes[i].Value < primes[j].Value
	})
	return primes
}

// selectCover picks a subset of prime implicants covering every on-set
// minterm: essential primes first, then a greedy completion.
func selectCover(k int, primes []Cube, onset []uint32) []Cube {
	covered := make([]bool, len(onset))
	coverers := make([][]int, len(onset)) // minterm -> prime indices
	for mi, m := range onset {
		for pi, p := range primes {
			if p.Covers(m) {
				coverers[mi] = append(coverers[mi], pi)
			}
		}
	}
	chosen := make(map[int]bool)
	// Essential prime implicants.
	for mi := range onset {
		if len(coverers[mi]) == 1 {
			chosen[coverers[mi][0]] = true
		}
	}
	markCovered := func() {
		for mi, m := range onset {
			if covered[mi] {
				continue
			}
			for pi := range chosen {
				if primes[pi].Covers(m) {
					covered[mi] = true
					break
				}
			}
		}
	}
	markCovered()

	varsOf := func(c Cube) uint32 { return ^c.Mask & kmask(k) }
	usedVars := uint32(0)
	for pi := range chosen {
		usedVars |= varsOf(primes[pi])
	}

	for {
		remaining := 0
		for _, c := range covered {
			if !c {
				remaining++
			}
		}
		if remaining == 0 {
			break
		}
		best, bestCov, bestNewVars, bestLits := -1, -1, 0, 0
		for pi, p := range primes {
			if chosen[pi] {
				continue
			}
			cov := 0
			for mi, m := range onset {
				if !covered[mi] && p.Covers(m) {
					cov++
				}
			}
			if cov == 0 {
				continue
			}
			newVars := bits.OnesCount32(varsOf(p) &^ usedVars)
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
		chosen[best] = true
		usedVars |= varsOf(primes[best])
		markCovered()
	}

	out := make([]Cube, 0, len(chosen))
	for pi := range chosen {
		out = append(out, primes[pi])
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Mask != out[j].Mask {
			return out[i].Mask < out[j].Mask
		}
		return out[i].Value < out[j].Value
	})
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

func dedup(xs []uint32, km uint32) []uint32 {
	seen := make(map[uint32]bool, len(xs))
	out := make([]uint32, 0, len(xs))
	for _, x := range xs {
		x &= km
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func index(sorted []uint32, x uint32) (int, bool) {
	i := sort.Search(len(sorted), func(i int) bool { return sorted[i] >= x })
	if i < len(sorted) && sorted[i] == x {
		return i, true
	}
	return i, false
}
