package core

import (
	"context"
	"fmt"

	"repro/internal/bitvec"
	"repro/internal/encoding"
	"repro/internal/obs"
)

// This file implements the paper's third piece of future work: "a model
// for evaluating the cost-effectiveness of a reconstruction of the
// encoded bitmap indexes" when the predefined selection predicates drift
// over time, plus the reconstruction itself (dynamic re-encoding).

// ReencodePlan describes a proposed re-encoding and its cost model.
type ReencodePlan[V comparable] struct {
	// Mapping is the proposed new encoding.
	Mapping *encoding.Mapping[V]
	// CurrentCost and NewCost are the workload costs (total bitmap
	// vectors read across the predicate set, weighted) under the current
	// and proposed encodings.
	CurrentCost int
	NewCost     int
	// RebuildVectors is the one-time reconstruction cost in vector
	// writes: the new k times the row count, the O(|T|·h) build term of
	// Section 3.1.
	RebuildVectors int
}

// Gain returns the per-evaluation saving in vectors read.
func (p *ReencodePlan[V]) Gain() int { return p.CurrentCost - p.NewCost }

// BreakEvenEvaluations returns how many evaluations of the workload must
// happen before the reconstruction pays for itself, comparing vector
// writes against vector reads saved. Returns -1 when the plan never pays
// off.
func (p *ReencodePlan[V]) BreakEvenEvaluations() int {
	gain := p.Gain()
	if gain <= 0 {
		return -1
	}
	return (p.RebuildVectors + gain - 1) / gain
}

// PlanReencode searches for an encoding optimized for the given weighted
// predicate workload and prices it against the current one. weights may
// be nil (every predicate counts once); otherwise weights[i] is the
// relative evaluation frequency of predicates[i].
func (ix *Index[V]) PlanReencode(predicates [][]V, weights []int, searchOpt *encoding.SearchOptions) (*ReencodePlan[V], error) {
	return ix.View().PlanReencode(predicates, weights, searchOpt)
}

// PlanReencode prices a re-encoding of the view's rows (see
// Index.PlanReencode); planning reads only the mapping, and the rebuild
// term covers every row, tail included.
func (v *View[V]) PlanReencode(predicates [][]V, weights []int, searchOpt *encoding.SearchOptions) (*ReencodePlan[V], error) {
	ix := v.ix
	if len(predicates) == 0 {
		return nil, fmt.Errorf("core: empty workload")
	}
	if weights != nil && len(weights) != len(predicates) {
		return nil, fmt.Errorf("core: %d weights for %d predicates", len(weights), len(predicates))
	}
	var so encoding.SearchOptions
	if searchOpt != nil {
		so = *searchOpt
	}
	so.ReserveZeroCode = ix.reserveVoid
	if !so.UseDontCares {
		so.UseDontCares = ix.useDC
	}
	so.Weights = weights

	// The search optimizes over the full current domain; predicates must
	// reference mapped values only.
	domain := ix.mapping.Values()
	proposed, err := encoding.FindEncoding(domain, predicates, &so)
	if err != nil {
		return nil, err
	}

	curCost, err := ix.workloadCost(ix.mapping, predicates, weights)
	if err != nil {
		return nil, err
	}
	newCost, err := ix.workloadCost(proposed, predicates, weights)
	if err != nil {
		return nil, err
	}
	return &ReencodePlan[V]{
		Mapping:        proposed,
		CurrentCost:    curCost,
		NewCost:        newCost,
		RebuildVectors: proposed.K() * v.Len(),
	}, nil
}

func (ix *Index[V]) workloadCost(m *encoding.Mapping[V], predicates [][]V, weights []int) (int, error) {
	return encoding.WeightedCost(m, predicates, weights, ix.useDC, ix.reserveVoid)
}

// Reencode rebuilds the index's vectors under the new mapping in one
// O(n·k) pass. The mapping must cover every currently mapped value, keep
// code 0 free when the index reserves it, and leave room for the NULL
// code. Row contents (including voids and NULLs) are preserved exactly.
func (ix *Index[V]) Reencode(newMapping *encoding.Mapping[V]) (err error) {
	_, sp := obs.StartSpan(context.Background(), "ebi.core.reencode")
	if sp != nil {
		sp.SetAttr("rows", ix.n)
		sp.SetAttr("old_k", ix.K())
		sp.SetAttr("new_k", newMapping.K())
		defer func() {
			sp.SetError(err)
			sp.End()
		}()
	}
	nix, err := ix.reencodedCopy(newMapping)
	if err != nil {
		return err
	}
	ix.mapping = nix.mapping
	ix.vectors = nix.vectors
	ix.hasNullCode = nix.hasNullCode
	ix.nullCode = nix.nullCode
	ix.rebuildSources()
	ix.invalidateCache()
	mReencodes.Inc()
	return nil
}

// reencodedCopy builds a fully private copy of the index re-encoded under
// the new mapping, leaving the receiver untouched — the shadow-rebuild
// half of a live re-encoding (Synced.Reencode) and the engine behind the
// in-place Reencode. Validation matches Reencode's contract: the mapping
// must cover every mapped value, keep code 0 free when reserved, and
// leave a free code for NULL when the index carries one.
func (ix *Index[V]) reencodedCopy(newMapping *encoding.Mapping[V]) (*Index[V], error) {
	nm := newMapping.Clone()
	// Validate coverage.
	for _, v := range ix.mapping.Values() {
		if !nm.Contains(v) {
			return nil, fmt.Errorf("core: new mapping is missing value %v", v)
		}
	}
	if ix.reserveVoid {
		if holder, taken := nm.ValueOf(0); taken {
			return nil, fmt.Errorf("core: new mapping assigns the void code 0 to %v", holder)
		}
	}

	// Translation table old code -> new code.
	newK := nm.K()
	trans := make(map[uint32]uint32, ix.mapping.Len()+2)
	for _, v := range ix.mapping.Values() {
		oldC, _ := ix.mapping.CodeOf(v)
		newC, _ := nm.CodeOf(v)
		trans[oldC] = newC
	}
	nix := &Index[V]{
		mapping:     nm,
		n:           ix.n,
		reserveVoid: ix.reserveVoid,
		useDC:       ix.useDC,
		hasNullCode: ix.hasNullCode,
		deleted:     ix.deleted,
		cs:          new(codeSpace[V]),
	}
	if ix.hasNullCode {
		// Re-pick a NULL code among the new mapping's free codes.
		found := false
		for _, c := range nm.FreeCodes() {
			if ix.reserveVoid && c == 0 {
				continue
			}
			nix.nullCode = c
			found = true
			break
		}
		if !found {
			return nil, fmt.Errorf("core: new mapping leaves no free code for NULL")
		}
		trans[ix.nullCode] = nix.nullCode
	}
	if ix.reserveVoid {
		trans[0] = 0
	}

	// Rebuild the vectors.
	rebuilt := make([]*bitvec.Vector, newK)
	for i := range rebuilt {
		rebuilt[i] = bitvec.New(ix.n)
	}
	for row := 0; row < ix.n; row++ {
		oldC := ix.CodeAt(row)
		newC, ok := trans[oldC]
		if !ok {
			return nil, fmt.Errorf("core: row %d carries unmapped code %0*b", row, ix.K(), oldC)
		}
		for i := 0; i < newK; i++ {
			if newC&(1<<uint(i)) != 0 {
				rebuilt[i].Set(row)
			}
		}
	}
	nix.vectors = rebuilt
	nix.rebuildSources()
	return nix, nil
}

// OptimizeFor is the convenience composition: plan a re-encoding for the
// workload and apply it if it pays off within maxBreakEven workload
// evaluations. It reports whether a re-encoding was applied.
func (ix *Index[V]) OptimizeFor(predicates [][]V, weights []int, maxBreakEven int, searchOpt *encoding.SearchOptions) (bool, *ReencodePlan[V], error) {
	plan, err := ix.PlanReencode(predicates, weights, searchOpt)
	if err != nil {
		return false, nil, err
	}
	be := plan.BreakEvenEvaluations()
	if be < 0 || (maxBreakEven > 0 && be > maxBreakEven) {
		return false, plan, nil
	}
	if err := ix.Reencode(plan.Mapping); err != nil {
		return false, plan, err
	}
	return true, plan, nil
}
