package main

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/drift"
	"repro/internal/workload"
)

// measureSyncedWorkload replays the captured weighted workload against
// the live index and totals the vector reads — the measured counterpart
// of ReencodePlan.CurrentCost/NewCost.
func measureSyncedWorkload(s *core.Synced[int64], preds [][]int64, weights []int) int {
	total := 0
	for i, p := range preds {
		_, st := s.In(p)
		total += st.VectorsRead * weights[i]
	}
	return total
}

// runReencodeLive closes the adaptive loop with zero downtime: the drift
// watcher in apply mode re-encodes a live Synced index behind an epoch
// flip while a reader keeps querying, and the measured workload cost
// before/after must equal the plan's CurrentCost/NewCost field for field
// — the break-even model prices exactly what the swap delivers.
func runReencodeLive(cfg config) error {
	fmt.Println("Zero-downtime adaptive re-encoding: drift watcher apply mode over the epoch flip")
	r := rand.New(rand.NewSource(cfg.seed))
	m := 63
	column := workload.Uniform(r, cfg.n, m)
	s, err := core.BuildSynced(column, nil, nil)
	if err != nil {
		return err
	}
	fmt.Printf("indexed %d rows, %d distinct values, k=%d vectors, epoch %d\n",
		s.Len(), s.Cardinality(), s.K(), s.Epoch())

	rec := drift.NewRecorder[int64]("reencode-live", 64, 256)
	s.SetSelectionObserver(rec)
	w := drift.NewWatcher[int64](s, rec, drift.Config{
		Apply:          true,
		ScoreThreshold: 0.1,
		ApplyCooldown:  time.Millisecond,
	})

	// The drifted workload: two scattered 8-value groups dominate, which
	// the build-time (value-order) encoding retrieves at nearly full k.
	perm := r.Perm(m)
	hot1, hot2 := make([]int64, 8), make([]int64, 8)
	for i := 0; i < 8; i++ {
		hot1[i], hot2[i] = int64(perm[i]), int64(perm[8+i])
	}
	for i := 0; i < 500; i++ {
		_, _ = s.In(hot1)
		if i%2 == 0 {
			_, _ = s.In(hot2)
		}
	}

	// Freeze the capture: detach the observer so neither the measurement
	// replays below nor the concurrent reader perturb the recorded
	// weights between the offline pricing and the watcher's own capture.
	s.SetSelectionObserver(nil)
	preds, weights := rec.Workload(0)
	offline, err := s.PlanReencode(preds, weights, nil)
	if err != nil {
		return err
	}
	before := measureSyncedWorkload(s, preds, weights)

	// A reader hammers the index throughout the apply; with the epoch
	// flip there is no lock to stall on, so every read completes against
	// a consistent snapshot (old or new encoding, never a mix).
	var (
		stop    = make(chan struct{})
		readers sync.WaitGroup
		reads   atomic.Int64
	)
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			rows, _ := s.In(hot1)
			if rows.Len() != s.Len() {
				// Len can only lag behind (no appends here): a mismatch
				// would mean a read observed a half-built state.
				panic("reader saw an inconsistent snapshot")
			}
			reads.Add(1)
		}
	}()

	t0 := time.Now()
	rep := w.RunOnce()
	applied := time.Since(t0)
	close(stop)
	readers.Wait()

	if rep.Plan == nil {
		return fmt.Errorf("reencode-live: watcher produced no plan: %s", rep.Error)
	}
	if rep.Applies != 1 || rep.LastApply == nil || rep.LastApply.Error != "" {
		return fmt.Errorf("reencode-live: apply did not land: %+v", rep.LastApply)
	}
	fmt.Printf("applied live in %v while %d concurrent reads completed (epoch %d -> %d)\n",
		applied.Round(time.Millisecond), reads.Load(), 1, s.Epoch())

	// Parity 1: the watcher's applied plan vs an offline PlanReencode
	// over the same frozen workload — field for field.
	if offline.CurrentCost != rep.Plan.CurrentCost || offline.NewCost != rep.Plan.NewCost ||
		offline.Gain() != rep.Plan.Gain ||
		offline.BreakEvenEvaluations() != rep.Plan.BreakEvenEvaluations ||
		offline.Mapping.K() != rep.Plan.ProposedK {
		return fmt.Errorf("reencode-live: watcher plan diverges from offline PlanReencode")
	}

	// Parity 2: the model's costs vs measured vector reads, before and
	// after the flip. c_e is the number of vectors the minimized
	// retrieval expression touches, so the match must be exact.
	after := measureSyncedWorkload(s, preds, weights)
	fmt.Printf("workload cost: predicted %d -> %d (gain %d), measured %d -> %d\n",
		rep.Plan.CurrentCost, rep.Plan.NewCost, rep.Plan.Gain, before, after)
	if before != rep.Plan.CurrentCost {
		return fmt.Errorf("reencode-live: measured pre-flip cost %d != predicted CurrentCost %d",
			before, rep.Plan.CurrentCost)
	}
	if after != rep.Plan.NewCost {
		return fmt.Errorf("reencode-live: measured post-flip cost %d != predicted NewCost %d",
			after, rep.Plan.NewCost)
	}
	if before-after != rep.Plan.Gain {
		return fmt.Errorf("reencode-live: measured gain %d != predicted %d", before-after, rep.Plan.Gain)
	}
	fmt.Println("measured pre/post-flip costs equal the plan's CurrentCost/NewCost exactly")
	fmt.Printf("break-even after %d workload evaluations (rebuild %d vector-bits)\n",
		rep.Plan.BreakEvenEvaluations, rep.Plan.RebuildVectors)
	return nil
}
