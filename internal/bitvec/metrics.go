package bitvec

import "repro/internal/obs"

// Kernel-level telemetry: one counter tick per bulk Boolean operation and
// per popcount pass. These count raw kernel invocations (including ones
// inside index builds), whereas the ebi_*_total counters in obs count the
// query-visible iostat.Stats; comparing the two shows how much vector
// work happens outside accounted query paths.
var (
	mBulkOps = obs.Default().Counter("ebi_bitvec_bulk_ops_total",
		"Word-at-a-time bulk Boolean operations (And/Or/Xor/AndNot/Not).")
	mPopcounts = obs.Default().Counter("ebi_bitvec_popcount_total",
		"Popcount passes (Count/Rank) over bit vectors.")
	mSegPopcounts = obs.Default().Counter("ebi_bitvec_segment_popcount_total",
		"Segment-range popcount passes (PopcountRange).")
)
