package query_test

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	. "repro/internal/query"
)

// TestSyncedRangeOneSnapshot pins that a Synced range leaf reads one
// snapshot: the range is rewritten to an IN list over the mapped domain,
// and that list and its evaluation must come from the same state. A
// writer appends only never-seen values inside the range, so every
// consistent answer selects exactly the appended rows; rewriting on one
// snapshot and evaluating on a later one would miss the rows whose value
// the earlier domain did not hold yet.
func TestSyncedRangeOneSnapshot(t *testing.T) {
	const base = 1000
	col := make([]int64, base)
	for i := range col {
		col[i] = int64(i % 8)
	}
	sx, err := core.BuildSynced(col, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	leaf := SyncedEBIInt{Ix: sx}

	var done atomic.Bool
	go func() {
		defer done.Store(true)
		for v := int64(100); v < 160; v++ {
			if err := sx.Append(v); err != nil {
				t.Error(err)
				return
			}
			time.Sleep(50 * time.Microsecond)
		}
	}()

	ranges := 0
	for !done.Load() {
		rows, _, err := leaf.Range(100, 200)
		if err != nil {
			t.Fatal(err)
		}
		ranges++
		n := rows.Len()
		if got, want := rows.Count(), n-base; got != want || (want > 0 && rows.NextSet(0) != base) {
			t.Fatalf("range %d over %d rows selected %d rows from row %d, want rows %d..%d",
				ranges, n, got, rows.NextSet(0), base, n-1)
		}
	}
}
