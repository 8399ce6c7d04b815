package query_test

import (
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/encoding"
	"repro/internal/iostat"
	. "repro/internal/query"
	"repro/internal/table"
	"repro/internal/workload"
)

// reversedMappings returns two well-formed mappings over the same value
// set and the same code space: A assigns codes 1..m in value order, B
// assigns them reversed. Both keep code 0 free (Theorem 2.1), so either
// can be the live encoding and a flip between them reassigns every code.
func reversedMappings(values []int64) (*encoding.Mapping[int64], *encoding.Mapping[int64]) {
	k := encoding.BitsFor(len(values) + 1)
	a := encoding.NewMapping[int64](k)
	b := encoding.NewMapping[int64](k)
	for i, v := range values {
		a.MustAdd(v, uint32(i+1))
		b.MustAdd(v, uint32(len(values)-i))
	}
	return a, b
}

// TestOracleThroughLiveSwap extends the cross-index differential oracle
// through a live re-encoding: a background swapper flips one Synced index
// between two encodings while the oracle streams workloads through the
// planner. Every workload's rows must match the index-less scan
// bit-for-bit, and every workload's iostat.Stats must exactly equal one
// of the two pure per-encoding reference indexes — before, during, and
// after the swaps. A reader that ever touched a half-rebuilt state would
// fail both.
func TestOracleThroughLiveSwap(t *testing.T) {
	const n = 2500
	r := rand.New(rand.NewSource(404))
	col := workload.Zipf(r, n, 12, 1.2)

	distinct := map[int64]bool{}
	var values []int64
	for _, v := range col {
		if !distinct[v] {
			distinct[v] = true
			values = append(values, v)
		}
	}
	mapA, mapB := reversedMappings(values)
	card := len(values)

	refA, err := core.Build(col, nil, &core.Options[int64]{Mapping: mapA.Clone()})
	if err != nil {
		t.Fatal(err)
	}
	refB, err := core.Build(col, nil, &core.Options[int64]{Mapping: mapB.Clone()})
	if err != nil {
		t.Fatal(err)
	}
	live, err := core.BuildSynced(col, nil, &core.Options[int64]{Mapping: mapA.Clone()})
	if err != nil {
		t.Fatal(err)
	}

	tab := table.MustNew("t", table.NewColumn("v", table.Int64))
	for _, v := range col {
		if err := tab.AppendRow(table.IntCell(v)); err != nil {
			t.Fatal(err)
		}
	}
	scan := NewExecutor(tab)
	mkPlanner := func(name string, ix ColumnIndex, k int) *Planner {
		pl := NewPlanner(NewExecutor(tab))
		if err := pl.AddPath("v", AccessPath{Name: name, Index: ix, Model: EBIModel(k)}); err != nil {
			t.Fatal(err)
		}
		return pl
	}
	plLive := mkPlanner("ebi-live", SyncedEBIInt{Ix: live}, live.K())
	plA := mkPlanner("ebi-a", EBIInt{Ix: refA}, refA.K())
	plB := mkPlanner("ebi-b", EBIInt{Ix: refB}, refB.K())

	check := func(phase string, w int, pred Predicate, wantStats ...iostat.Stats) {
		t.Helper()
		want, _, err := scan.Eval(pred)
		if err != nil {
			t.Fatalf("%s %d: scan: %v", phase, w, err)
		}
		got, st, choices, err := plLive.Eval(pred)
		if err != nil {
			t.Fatalf("%s %d (%s): live: %v", phase, w, pred, err)
		}
		if !got.Equal(want) {
			t.Fatalf("%s %d (%s): live returned %d rows, scan %d — row sets differ\nchoices: %v",
				phase, w, pred, got.Count(), want.Count(), choices)
		}
		for _, ws := range wantStats {
			if st == ws {
				return
			}
		}
		t.Fatalf("%s %d (%s): live stats %+v match no reference encoding (%+v)",
			phase, w, pred, st, wantStats)
	}
	refStats := func(pl *Planner, pred Predicate) iostat.Stats {
		t.Helper()
		_, st, _, err := pl.Eval(pred)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}

	// Phase 1 — quiescent under encoding A: full compound predicate trees,
	// exact stats parity with the pure A index.
	for w := 0; w < 40; w++ {
		pred := randOraclePred(r, card, 2)
		check("pre-swap", w, pred, refStats(plA, pred))
	}

	// Phase 2 — a background swapper alternates live re-encodings while
	// the oracle keeps streaming. Predicates here are single leaves: a
	// compound tree could legitimately evaluate its leaves in different
	// epochs around a flip and produce a stats mix matching neither pure
	// encoding, which would dilute the check rather than strengthen it.
	var (
		stopSwaps = make(chan struct{})
		swapsDone = make(chan struct{})
		swaps     atomic.Uint64
	)
	go func() {
		defer close(swapsDone)
		for toB := true; ; toB = !toB {
			select {
			case <-stopSwaps:
				return
			default:
			}
			m := mapA
			if toB {
				m = mapB
			}
			if err := live.Reencode(m.Clone()); err != nil {
				t.Errorf("swap %d: %v", swaps.Load(), err)
				return
			}
			swaps.Add(1)
			time.Sleep(200 * time.Microsecond)
		}
	}()
	// Keep streaming until at least 200 workloads ran AND several swaps
	// really completed underneath them (scheduling on a loaded machine
	// can briefly starve the swapper; the cap keeps a wedged swapper
	// from hanging the test).
	const minPreds, minSwaps, maxPreds = 200, 3, 20000
	for w := 0; w < minPreds || swaps.Load() < minSwaps; w++ {
		if w >= maxPreds {
			t.Fatalf("swapper completed only %d swaps in %d workloads", swaps.Load(), w)
		}
		pred := randOraclePred(r, card, 0) // depth 0: always a single leaf
		check("mid-swap", w, pred, refStats(plA, pred), refStats(plB, pred))
	}
	close(stopSwaps)
	<-swapsDone
	if got, want := live.Epoch(), 1+swaps.Load(); got != want {
		t.Fatalf("epoch = %d, want %d (one flip per swap)", got, want)
	}

	// Phase 3 — quiescent again: identify the surviving encoding and
	// demand exact compound-tree stats parity with its pure reference.
	var finalCode uint32
	var ok bool
	_ = live.WithReadLock(func(ix *core.Index[int64]) error {
		finalCode, ok = ix.Mapping().CodeOf(values[0])
		return nil
	})
	if !ok {
		t.Fatalf("final mapping lost value %d", values[0])
	}
	codeA, _ := mapA.CodeOf(values[0])
	plRef := plB
	if finalCode == codeA {
		plRef = plA
	}
	for w := 0; w < 40; w++ {
		pred := randOraclePred(r, card, 2)
		check("post-swap", w, pred, refStats(plRef, pred))
	}
}
