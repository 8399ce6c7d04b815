package boolmin

import (
	"math/bits"
	"sort"
)

// refMinimize is the tabular Quine–McCluskey reduction Minimize replaced,
// kept as its reference: it lists every implicant of on ∪ dc level by level
// through maps and pairwise merges, then covers the on-set with the same
// tie-breaks Minimize documents, testing every (prime, minterm) pair.
// Minimize must return exactly its Expr, cube for cube and in order.
func refMinimize(k int, on, dc []uint32) Expr {
	km := kmask(k)
	onset := refDedup(on, km)
	dcset := refDedup(dc, km)
	if len(onset) == 0 {
		return Expr{K: k}
	}
	if len(onset)+len(dcset) == 1<<uint(k) && len(dcset) == 0 {
		return Expr{K: k, Cubes: []Cube{{Value: 0, Mask: km}}}
	}
	primes := refPrimeImplicants(k, append(append([]uint32{}, onset...), dcset...))
	return Expr{K: k, Cubes: refSelectCover(k, primes, onset)}
}

// refPrimeImplicants computes all prime implicants of the union set via the
// tabular merging procedure, sorted by (Mask, Value).
func refPrimeImplicants(k int, terms []uint32) []Cube {
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

// refSelectCover picks a subset of prime implicants covering every on-set
// minterm: essential primes first, then a greedy completion.
func refSelectCover(k int, primes []Cube, onset []uint32) []Cube {
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

func refDedup(xs []uint32, km uint32) []uint32 {
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
