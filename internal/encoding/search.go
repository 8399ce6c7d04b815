package encoding

import (
	"fmt"
	"math/bits"
	"math/rand"

	"repro/internal/boolmin"
)

// SearchOptions tunes FindEncoding. The zero value gives sensible defaults.
type SearchOptions struct {
	// UseDontCares lets the cost function treat unassigned codes as
	// don't-care terms during logical reduction (footnote 3 of the paper).
	UseDontCares bool
	// ReserveZeroCode keeps code 0 unassigned (and excluded from the
	// don't-care set), per Theorem 2.1's reservation of 0 for void
	// tuples. The code space is sized to len(values)+1 accordingly.
	ReserveZeroCode bool
	// Weights gives each predicate a relative evaluation frequency (the
	// output of workload mining); nil weighs every predicate equally.
	// When set, its length must match the predicate count.
	Weights []int
	// ExactLimit is the maximum domain size for which the exhaustive
	// permutation search runs. Defaults to 8 (8! = 40320 assignments).
	ExactLimit int
	// SwapBudget bounds the local-search improvement passes after the
	// heuristic construction. Defaults to 400.
	SwapBudget int
	// Seed drives the local search's randomization. Defaults to 1 so runs
	// are reproducible.
	Seed int64
}

func (o *SearchOptions) withDefaults() SearchOptions {
	var out SearchOptions
	if o != nil {
		out = *o
	}
	if out.ExactLimit == 0 {
		out.ExactLimit = 8
	}
	if out.SwapBudget == 0 {
		out.SwapBudget = 400
	}
	if out.Seed == 0 {
		out.Seed = 1
	}
	return out
}

// minCode returns the smallest assignable code under the options.
func (o SearchOptions) minCode() uint32 {
	if o.ReserveZeroCode {
		return 1
	}
	return 0
}

// Cost returns the paper's workload cost of a mapping: the total number of
// bitmap vectors read across all predicates, each predicate's retrieval
// expression minimized by logical reduction first. Lower is better;
// Theorems 2.2/2.3 say a well-defined encoding minimizes this.
//
// When useDontCares is set, every unassigned code is treated as a
// don't-care. Callers whose mapping reserves code 0 for void tuples should
// use WeightedCost with reserveZero set, so the void code stays in the
// off-set.
func Cost[V comparable](m *Mapping[V], predicates [][]V, useDontCares bool) (int, error) {
	return weightedCost(m, predicates, nil, useDontCares, false)
}

// WeightedCost is Cost with per-predicate frequencies: the total is
// Σ weight_i · c_e(predicate_i), the objective workload mining produces.
func WeightedCost[V comparable](m *Mapping[V], predicates [][]V, weights []int, useDontCares, reserveZero bool) (int, error) {
	return weightedCost(m, predicates, weights, useDontCares, reserveZero)
}

func weightedCost[V comparable](m *Mapping[V], predicates [][]V, weights []int, useDontCares, reserveZero bool) (int, error) {
	if weights != nil && len(weights) != len(predicates) {
		return 0, fmt.Errorf("encoding: %d weights for %d predicates", len(weights), len(predicates))
	}
	total := 0
	var dc []uint32
	if useDontCares {
		for _, c := range m.FreeCodes() {
			if reserveZero && c == 0 {
				continue
			}
			dc = append(dc, c)
		}
	}
	for i, p := range predicates {
		codes, err := m.CodesOf(p)
		if err != nil {
			return 0, fmt.Errorf("predicate %d: %w", i, err)
		}
		e := boolmin.Minimize(m.K(), codes, dc)
		w := 1
		if weights != nil {
			w = weights[i]
		}
		total += e.AccessCost() * w
	}
	return total, nil
}

// FindEncoding builds a mapping from values to k-bit codes
// (k = ceil(log2 (len(values) + reserved))) that minimizes the total
// vector-access cost of the given predicate subdomains. Small domains are
// solved by exhaustive arrangement search; larger ones by a
// signature-grouping + Gray-packing heuristic refined with randomized
// local search. This reconstructs the "heuristics for finding a
// well-defined encoding" that the paper defers to its tech report [18].
func FindEncoding[V comparable](values []V, predicates [][]V, opt *SearchOptions) (*Mapping[V], error) {
	o := opt.withDefaults()
	if len(values) == 0 {
		return nil, fmt.Errorf("encoding: empty domain")
	}
	seen := make(map[V]bool, len(values))
	for _, v := range values {
		if seen[v] {
			return nil, fmt.Errorf("encoding: duplicate value %v", v)
		}
		seen[v] = true
	}
	for i, p := range predicates {
		for _, v := range p {
			if !seen[v] {
				return nil, fmt.Errorf("encoding: predicate %d references value %v outside the domain", i, v)
			}
		}
	}
	if o.Weights != nil && len(o.Weights) != len(predicates) {
		return nil, fmt.Errorf("encoding: %d weights for %d predicates", len(o.Weights), len(predicates))
	}

	k := BitsFor(len(values) + int(o.minCode()))
	if len(values) <= o.ExactLimit {
		if m := exactSearch(values, predicates, k, o); m != nil {
			return m, nil
		}
	}
	m := heuristicEncoding(values, predicates, k, o.minCode())
	localSearch(m, values, predicates, o)
	return m, nil
}

// exactSearch enumerates all injective assignments of values to codes in
// [minCode, 2^k) and returns the cheapest. Returns nil when the
// arrangement count is too large, letting the caller fall back to the
// heuristic.
func exactSearch[V comparable](values []V, predicates [][]V, k int, o SearchOptions) *Mapping[V] {
	n := len(values)
	space := 1 << uint(k)
	min := int(o.minCode())
	usable := space - min
	count := 1
	for i := 0; i < n; i++ {
		count *= usable - i
		if count > 400000 {
			return nil
		}
	}
	bestCost := int(^uint(0) >> 1)
	var best []uint32
	assign := make([]uint32, n)
	usedCode := make([]bool, space)

	valueIdx := make(map[V]int, n)
	for i, v := range values {
		valueIdx[v] = i
	}
	predIdx := make([][]int, len(predicates))
	for i, p := range predicates {
		predIdx[i] = make([]int, len(p))
		for j, v := range p {
			predIdx[i][j] = valueIdx[v]
		}
	}
	costOf := func() int {
		total := 0
		var dc []uint32
		if o.UseDontCares && n+min < space {
			inUse := make(map[uint32]bool, n)
			for _, c := range assign {
				inUse[c] = true
			}
			for c := uint32(min); c < uint32(space); c++ {
				if !inUse[c] {
					dc = append(dc, c)
				}
			}
		}
		for pi, p := range predIdx {
			codes := make([]uint32, len(p))
			for j, vi := range p {
				codes[j] = assign[vi]
			}
			w := 1
			if o.Weights != nil {
				w = o.Weights[pi]
			}
			total += boolmin.Minimize(k, codes, dc).AccessCost() * w
		}
		return total
	}

	var rec func(i int)
	rec = func(i int) {
		if i == n {
			if c := costOf(); c < bestCost {
				bestCost = c
				best = append([]uint32(nil), assign...)
			}
			return
		}
		for code := min; code < space; code++ {
			if usedCode[code] {
				continue
			}
			usedCode[code] = true
			assign[i] = uint32(code)
			rec(i + 1)
			usedCode[code] = false
		}
	}
	rec(0)

	m := NewMapping[V](k)
	for i, v := range values {
		m.MustAdd(v, best[i])
	}
	return m
}

// heuristicEncoding orders values by predicate-membership signature so that
// co-accessed values are adjacent, then assigns codes along the binary
// reflected Gray sequence (offset past any reserved codes). Aligned
// contiguous Gray blocks are subcubes, so a predicate whose values occupy
// an aligned block of size 2^p reduces to a single product term over k-p
// fewer vectors.
func heuristicEncoding[V comparable](values []V, predicates [][]V, k int, offset uint32) *Mapping[V] {
	n := len(values)

	// Signature: bitset of predicates containing the value.
	sig := make(map[V][]uint64, n)
	words := (len(predicates) + 63) / 64
	for _, v := range values {
		sig[v] = make([]uint64, words)
	}
	for pi, p := range predicates {
		for _, v := range p {
			sig[v][pi/64] |= 1 << (uint(pi) % 64)
		}
	}

	// Greedy ordering: start from the first value, repeatedly append the
	// unplaced value with the most similar signature to the last placed
	// one (minimal Hamming distance over predicate membership), breaking
	// ties by original order for determinism.
	placed := make([]bool, n)
	order := make([]int, 0, n)
	order = append(order, 0)
	placed[0] = true
	hamming := func(a, b []uint64) int {
		d := 0
		for i := range a {
			d += bits.OnesCount64(a[i] ^ b[i])
		}
		return d
	}
	for len(order) < n {
		last := sig[values[order[len(order)-1]]]
		best, bestD := -1, 1<<30
		for i := 0; i < n; i++ {
			if placed[i] {
				continue
			}
			if d := hamming(last, sig[values[i]]); d < bestD {
				best, bestD = i, d
			}
		}
		order = append(order, best)
		placed[best] = true
	}

	// Split the ordering into runs of identical signature and try to align
	// each run to a power-of-two Gray boundary: an aligned contiguous Gray
	// block of size 2^p is exactly a p-dimensional subcube, making the
	// run's retrieval function a single product term. Spare codes (and the
	// reserved zero position) absorb the padding; if the space is too
	// tight, fall back to dense packing from the offset.
	space := uint32(1) << uint(k)
	equalSig := func(a, b V) bool {
		sa, sb := sig[a], sig[b]
		for i := range sa {
			if sa[i] != sb[i] {
				return false
			}
		}
		return true
	}
	var runs [][]int
	for i := 0; i < n; {
		j := i + 1
		for j < n && equalSig(values[order[i]], values[order[j]]) {
			j++
		}
		runs = append(runs, order[i:j])
		i = j
	}
	positions := make([]uint32, 0, n)
	pos := offset
	for _, run := range runs {
		align := uint32(1)
		for align*2 <= uint32(len(run)) {
			align *= 2
		}
		if rem := pos % align; rem != 0 {
			pos += align - rem
		}
		for range run {
			positions = append(positions, pos)
			pos++
		}
	}
	if pos > space {
		// Not enough slack for alignment: dense packing.
		positions = positions[:0]
		for i := 0; i < n; i++ {
			positions = append(positions, uint32(i)+offset)
		}
	}

	m := NewMapping[V](k)
	for i, vi := range order {
		m.MustAdd(values[vi], GrayCode(positions[i]))
	}
	return m
}

// localSearch hill-climbs on the workload cost by swapping code pairs and,
// when spare codes exist, rebinding values to free codes.
func localSearch[V comparable](m *Mapping[V], values []V, predicates [][]V, o SearchOptions) {
	if len(predicates) == 0 {
		return
	}
	r := rand.New(rand.NewSource(o.Seed))
	cur, err := weightedCost(m, predicates, o.Weights, o.UseDontCares, o.ReserveZeroCode)
	if err != nil {
		return
	}
	freeCodes := func() []uint32 {
		var out []uint32
		for _, c := range m.FreeCodes() {
			if o.ReserveZeroCode && c == 0 {
				continue
			}
			out = append(out, c)
		}
		return out
	}
	n := len(values)
	for iter := 0; iter < o.SwapBudget; iter++ {
		free := freeCodes()
		if len(free) > 0 && r.Intn(4) == 0 {
			// Try rebinding a random value to a random free code.
			v := values[r.Intn(n)]
			old, _ := m.CodeOf(v)
			code := free[r.Intn(len(free))]
			if m.Rebind(v, code) != nil {
				continue
			}
			if c, err := weightedCost(m, predicates, o.Weights, o.UseDontCares, o.ReserveZeroCode); err == nil && c <= cur {
				cur = c
				continue
			}
			_ = m.Rebind(v, old)
			continue
		}
		a, b := values[r.Intn(n)], values[r.Intn(n)]
		if a == b {
			continue
		}
		if m.Swap(a, b) != nil {
			continue
		}
		if c, err := weightedCost(m, predicates, o.Weights, o.UseDontCares, o.ReserveZeroCode); err == nil && c < cur {
			cur = c
			continue
		}
		_ = m.Swap(a, b) // revert
	}
}
