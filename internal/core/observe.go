package core

import (
	"math/bits"

	"repro/internal/iostat"
)

// SelectionObserver receives one record per value-selection evaluation
// (Eq/In/NotIn and their parallel forms). values is the deduplicated
// in-domain value list the reduced retrieval expression selects — for
// NotIn that is the included complement, exactly what a re-encoding
// workload wants. minVectors is the Theorem 2.2/2.3
// theoretical minimum number of vectors any encoding of the current
// code space could read for a selection of that width, so
// st.VectorsRead - minVectors is the evaluation's encoding-inefficiency
// ("excess access"). The bound is precomputed by the index so the
// observer never needs to call back in, even from a reader of a Synced
// snapshot. Implementations must be safe for concurrent use.
type SelectionObserver[V comparable] interface {
	ObserveSelection(values []V, st iostat.Stats, minVectors int)
}

// SetSelectionObserver installs (or, with nil, removes) the selection
// observer. Like the index's other mutators it must not race with
// readers; wrap the index in a Synced or install the observer before
// queries start.
func (ix *Index[V]) SetSelectionObserver(o SelectionObserver[V]) { ix.observer = o }

// TheoreticalMinVectors returns the smallest number of bitmap vectors
// any encoding over this index's k-bit code space could read to answer
// a selection of delta distinct in-domain values. Reading s vectors
// partitions the code space into fibers of 2^(k-s) codes each, so a
// selection answerable with s reads must cover a fiber-aligned code set
// whose size n is a multiple of 2^(k-s); logical reduction may pad the
// on-set with don't-care codes, so n ranges over [delta, delta+dc].
// Minimizing k - v2(n) over that range (v2 = binary trailing zeros)
// gives the bound — the Theorem 2.2/2.3 best case c_e = k - v2(delta)
// relaxed by the free codes. It is the floor the drift score compares
// actual reads against.
func (ix *Index[V]) TheoreticalMinVectors(delta int) int {
	k := ix.K()
	if delta <= 0 || k == 0 {
		return 0
	}
	space := 1 << uint(k)
	if delta > space {
		delta = space
	}
	hi := delta + len(ix.dontCares())
	if hi > space {
		hi = space
	}
	best := k
	for n := delta; n <= hi && best > 0; n++ {
		if s := k - bits.TrailingZeros(uint(n)); s < best {
			if s < 0 {
				s = 0
			}
			best = s
		}
	}
	return best
}

// observeSelection reports one evaluation to the installed observer.
// The raw value list is deduplicated and filtered to mapped values
// first (out-of-domain values select nothing and would skew the
// workload); empty selections are not reported. Cost: one map + slice
// allocation per evaluation, paid only while an observer is installed.
func (ix *Index[V]) observeSelection(values []V, st iostat.Stats) {
	o := ix.observer
	if o == nil {
		return
	}
	mapped := make([]V, 0, len(values))
	seen := make(map[V]bool, len(values))
	for _, v := range values {
		if seen[v] {
			continue
		}
		if _, ok := ix.mapping.CodeOf(v); !ok {
			continue
		}
		seen[v] = true
		mapped = append(mapped, v)
	}
	if len(mapped) == 0 {
		return
	}
	o.ObserveSelection(mapped, st, ix.TheoreticalMinVectors(len(mapped)))
}
