package core

import "repro/internal/obs"

// Index-level telemetry. The void-skip counter is the observable form of
// Theorem 2.1: each retrieval-function evaluation over a void-reserving
// index answers "existing tuples only" without the existence-mask AND a
// simple bitmap index would pay.
var (
	mEvals = obs.Default().Counter("ebi_core_evals_total",
		"Retrieval-function evaluations against an encoded bitmap index.")
	mVoidSkips = obs.Default().Counter("ebi_core_void_skips_total",
		"Evaluations that skipped the existence-mask AND thanks to the Theorem 2.1 void-code reservation.")
	mExprCacheHits = obs.Default().Counter("ebi_core_expr_cache_hits_total",
		"Code-set lookups served a reduced expression and its program from the code space's cache.")
	mExprCacheMisses = obs.Default().Counter("ebi_core_expr_cache_misses_total",
		"Code-set lookups that ran Quine-McCluskey and compiled, then cached the result.")
	mAppends = obs.Default().Counter("ebi_core_appends_total",
		"Tuples appended (including NULL appends).")
	mWidens = obs.Default().Counter("ebi_core_widens_total",
		"Domain expansions that widened the index by one bitmap vector (Figure 2b).")
	mReencodes = obs.Default().Counter("ebi_core_reencodes_total",
		"Dynamic re-encodings applied (future-work reconstruction).")
	mParallelEvals = obs.Default().Counter("ebi_core_parallel_evals_total",
		"Retrieval-function evaluations routed through the segmented parallel engine.")
	mSwaps = obs.Default().Counter("ebi_core_swaps_total",
		"Live epoch flips: re-encodings applied by shadow rebuild + atomic pointer swap with reads in flight.")
	mFolds = obs.Default().Counter("ebi_core_tail_folds_total",
		"Append tails folded into the base bitmap vectors (background compaction of the epoch scheme).")
	mCatchupReplays = obs.Default().Counter("ebi_core_catchup_replays_total",
		"Tuples replayed into a shadow index to catch up with appends that landed during a live re-encoding.")
)
