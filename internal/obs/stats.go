package obs

import "repro/internal/iostat"

// The paper's cost quantities as process-wide metrics. They are fed
// exclusively from iostat.Stats values via AddStats so the two accounting
// systems (per-call Stats returns and the running telemetry totals)
// cannot drift: whatever an evaluation returned is exactly what the
// counters advance by.
var (
	cntVectorsRead = Default().Counter("ebi_vectors_read_total",
		"Bitmap vectors read by query evaluations (the paper's c_s / c_e).")
	cntWordsRead = Default().Counter("ebi_words_read_total",
		"64-bit words scanned across all vector reads.")
	cntBoolOps = Default().Counter("ebi_bool_ops_total",
		"Bulk Boolean vector operations performed by query evaluations.")
	cntRowsScanned = Default().Counter("ebi_rows_scanned_total",
		"Rows materialized or scanned (projection / B-tree / fallback paths).")
	cntNodesRead = Default().Counter("ebi_nodes_read_total",
		"Tree nodes visited (B-tree paths).")
	cntPagesRead = Default().Counter("ebi_pages_read_total",
		"4K-page equivalents of the word volume moved (the paper's page I/O).")
)

// AddStats records one evaluation's iostat.Stats into the registry: the
// ebi_*_total counters advance by the Stats fields. The newest query's
// own Stats are on its root span in /traces.
func AddStats(st iostat.Stats) {
	if !enabled.Load() {
		return
	}
	cntVectorsRead.Add(uint64(st.VectorsRead))
	cntWordsRead.Add(uint64(st.WordsRead))
	cntBoolOps.Add(uint64(st.BoolOps))
	cntRowsScanned.Add(uint64(st.RowsScanned))
	cntNodesRead.Add(uint64(st.NodesRead))
	cntPagesRead.Add(uint64(st.PagesRead(0)))
}
