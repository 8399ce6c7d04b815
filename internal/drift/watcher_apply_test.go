package drift

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/encoding"
)

// TestWatcherApplyLive is apply mode end to end: a drifted workload must
// make RunOnce re-encode the live index through the epoch flip, reset the
// recorder (edge-triggered), publish the apply in the report, and leave
// queries bit-for-bit correct under the new encoding.
func TestWatcherApplyLive(t *testing.T) {
	s, w := buildWatched(t, "watch-apply", Config{
		Apply:          true,
		ScoreThreshold: 0.05,
		ApplyCooldown:  time.Hour, // block any second apply inside this test
	})
	shiftWorkload(s, 10)

	before := liveMapping(s)
	rep := w.RunOnce()
	if rep.Plan == nil {
		t.Fatalf("no plan; report = %+v", rep)
	}
	if rep.Applies != 1 || rep.LastApply == nil {
		t.Fatalf("applies = %d, last = %+v", rep.Applies, rep.LastApply)
	}
	la := rep.LastApply
	if la.Error != "" {
		t.Fatalf("apply failed: %s", la.Error)
	}
	if la.Gain != rep.Plan.Gain || la.NewCost != rep.Plan.NewCost || la.ProposedK != rep.Plan.ProposedK {
		t.Fatalf("apply report %+v disagrees with plan %+v", la, rep.Plan)
	}
	if s.Epoch() != 2 {
		t.Fatalf("epoch = %d, want 2 (exactly one live flip)", s.Epoch())
	}

	// The proposed encoding differs from the build-time one (the workload
	// shifted), and queries under it still select the right rows.
	changed := false
	after := liveMapping(s)
	for _, v := range s.Values() {
		ca, _ := before.CodeOf(v)
		cb, _ := after.CodeOf(v)
		if ca != cb {
			changed = true
		}
	}
	if !changed {
		t.Fatal("apply kept the identical code assignment")
	}

	// Edge triggering: the recorder was reset, so the next run sees an
	// empty capture and must not re-apply. (Checked before the query
	// probes below — those feed the recorder again.)
	rep2 := w.RunOnce()
	if rep2.Observed != 0 {
		t.Fatalf("recorder not reset: observed = %d", rep2.Observed)
	}
	if rep2.Applies != 1 {
		t.Fatalf("second run re-applied: applies = %d", rep2.Applies)
	}

	for v := 0; v < 16; v++ {
		rows, _ := s.View().Eq(v)
		if rows.Count() != 16 { // 256 rows, i%16
			t.Fatalf("post-apply Eq(%d) selects %d rows, want 16", v, rows.Count())
		}
	}

	// Cooldown: even a fresh drifted capture cannot re-apply within the
	// window.
	shiftWorkload(s, 10)
	rep3 := w.RunOnce()
	if rep3.Applies != 1 {
		t.Fatalf("apply ignored the cooldown: applies = %d", rep3.Applies)
	}
	if s.Epoch() != 2 {
		t.Fatalf("epoch moved to %d during cooldown", s.Epoch())
	}
}

// liveMapping returns a copy of the live mapping of a Synced index.
func liveMapping(s *core.Synced[int]) *encoding.Mapping[int] {
	var m *encoding.Mapping[int]
	_ = s.WithReadLock(func(ix *core.Index[int]) error {
		m = ix.Mapping()
		return nil
	})
	return m
}

// TestWatcherApplyRespectsGainFloor: a capture whose best re-encoding
// gains nothing must never trigger an apply even above the score
// threshold.
func TestWatcherApplyRespectsGainFloor(t *testing.T) {
	s, w := buildWatched(t, "watch-apply-floor", Config{
		Apply:          true,
		ScoreThreshold: 0,
		MinGain:        1 << 30,
	})
	shiftWorkload(s, 10)
	rep := w.RunOnce()
	if rep.Plan == nil {
		t.Fatalf("no plan; report = %+v", rep)
	}
	if rep.Applies != 0 || rep.LastApply != nil {
		t.Fatalf("apply fired under an unreachable gain floor: %+v", rep)
	}
	if s.Epoch() != 1 {
		t.Fatalf("epoch = %d, want untouched 1", s.Epoch())
	}
}

// planOnlyView strips the Reencoder capability from a watched index, so
// apply mode must degrade to plan-and-report.
type planOnlyView struct{ ix *core.Index[int] }

func (v planOnlyView) PlanReencode(preds [][]int, weights []int, opt *encoding.SearchOptions) (*core.ReencodePlan[int], error) {
	return v.ix.PlanReencode(preds, weights, opt)
}
func (v planOnlyView) K() int           { return v.ix.K() }
func (v planOnlyView) Len() int         { return v.ix.Len() }
func (v planOnlyView) Cardinality() int { return v.ix.Cardinality() }

// TestWatcherApplyWithoutReencoder: apply mode over an index that cannot
// re-encode itself is a quiet no-op, not a panic.
func TestWatcherApplyWithoutReencoder(t *testing.T) {
	column := make([]int, 128)
	for i := range column {
		column[i] = i % 8
	}
	ix, err := core.Build(column, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder[int]("watch-apply-noop", 8, 16)
	ix.SetSelectionObserver(rec)
	w := NewWatcher[int](planOnlyView{ix}, rec, Config{Apply: true, ScoreThreshold: 0})
	for i := 0; i < 8; i++ {
		rec.ObserveSelection([]int{i}, istats(5), 1)
	}
	rep := w.RunOnce()
	if rep.Applies != 0 || rep.LastApply != nil {
		t.Fatalf("apply fired without a Reencoder: %+v", rep)
	}
}
