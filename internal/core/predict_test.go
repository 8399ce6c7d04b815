package core

import (
	"fmt"
	"testing"

	"repro/internal/encoding"
	"repro/internal/iostat"
)

// The audit plane's stats-conformance check depends on a view's
// Predict*Stats being exactly the measured accounting of the
// corresponding read path, for every shape the adapters can produce:
// known and unknown values, NULLs (with and without an allocated NULL
// code), value lists, Synced tails, and encodings swapped by a live
// Reencode.

// rotatedMapping builds a wider mapping with every code shifted by one —
// a guaranteed-different encoding over the same domain, for exercising
// prediction parity across a live Reencode.
func rotatedMapping(values []string) *encoding.Mapping[string] {
	k := encoding.BitsFor(len(values) + 2)
	m := encoding.NewMapping[string](k)
	for i, v := range values {
		m.MustAdd(v, uint32(i+2))
	}
	return m
}

func predictColumn() ([]string, []bool) {
	vals := []string{"a", "b", "c", "d", "e", "f", "g"}
	col := make([]string, 300)
	null := make([]bool, 300)
	for i := range col {
		col[i] = vals[i%len(vals)]
		null[i] = i%41 == 0
	}
	return col, null
}

func checkSelectionParity[V comparable](t *testing.T, name string,
	measure func([]V) iostat.Stats, predict func([]V) iostat.Stats, sets [][]V) {
	t.Helper()
	for i, vs := range sets {
		got, want := predict(vs), measure(vs)
		if got != want {
			t.Errorf("%s set %d (%v): predicted %+v, measured %+v", name, i, vs, got, want)
		}
	}
}

func TestPredictSelectionStatsIndexParity(t *testing.T) {
	col, null := predictColumn()
	ix, err := Build(col, null, &Options[string]{NullSupport: true})
	if err != nil {
		t.Fatal(err)
	}
	sets := [][]string{
		{"a"}, {"g"}, {"nope"}, {}, {"a", "b"}, {"a", "b", "c", "nope"},
		{"a", "b", "c", "d", "e", "f", "g"},
	}
	checkSelectionParity(t, "index", func(vs []string) iostat.Stats {
		if len(vs) == 1 {
			_, st := ix.Eq(vs[0])
			return st
		}
		_, st := ix.In(vs)
		return st
	}, ix.View().PredictSelectionStats, sets)

	_, st := ix.IsNull()
	if got := ix.View().PredictIsNullStats(); got != st {
		t.Errorf("IsNull: predicted %+v, measured %+v", got, st)
	}

	// Without NULL support the measured path short-circuits to zero stats.
	plain, err := Build([]string{"x", "y", "z"}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, st = plain.IsNull()
	if got := plain.View().PredictIsNullStats(); got != st || got != (iostat.Stats{}) {
		t.Errorf("IsNull without null code: predicted %+v, measured %+v", got, st)
	}
}

func TestPredictSelectionStatsSyncedParity(t *testing.T) {
	col, null := predictColumn()
	s, err := BuildSynced(col, null, &Options[string]{NullSupport: true})
	if err != nil {
		t.Fatal(err)
	}
	sets := [][]string{{"a"}, {"nope"}, {"a", "b", "c"}, {"b", "d", "f", "nope"}}
	measure := func(vs []string) iostat.Stats {
		if len(vs) == 1 {
			_, st := s.View().Eq(vs[0])
			return st
		}
		_, st := s.In(vs)
		return st
	}
	stages := []struct {
		name string
		prep func(t *testing.T)
	}{
		{"fresh", func(t *testing.T) {}},
		{"tail", func(t *testing.T) {
			for i := 0; i < 75; i++ { // non-word-aligned tail
				if err := s.Append(fmt.Sprintf("t%d", i%3)); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.AppendNull(); err != nil {
				t.Fatal(err)
			}
		}},
		{"flushed", func(t *testing.T) { s.Flush() }},
		{"reencoded", func(t *testing.T) {
			if err := s.Reencode(rotatedMapping(s.Values())); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, stage := range stages {
		t.Run(stage.name, func(t *testing.T) {
			stage.prep(t)
			checkSelectionParity(t, stage.name, measure, s.View().PredictSelectionStats, sets)
			_, st := s.View().IsNull()
			if got := s.View().PredictIsNullStats(); got != st {
				t.Errorf("IsNull: predicted %+v, measured %+v", got, st)
			}
		})
	}
}

func TestPredictGenChangesWithBasis(t *testing.T) {
	col, null := predictColumn()
	s, err := BuildSynced(col, null, &Options[string]{NullSupport: true})
	if err != nil {
		t.Fatal(err)
	}
	g0 := s.View().PredictGen()
	if err := s.Append("a"); err != nil {
		t.Fatal(err)
	}
	g1 := s.View().PredictGen()
	if g1 == g0 {
		t.Fatal("PredictGen unchanged by append")
	}
	if err := s.Reencode(rotatedMapping(s.Values())); err != nil {
		t.Fatal(err)
	}
	if g2 := s.View().PredictGen(); g2 == g1 {
		t.Fatal("PredictGen unchanged by re-encoding flip")
	}
}

// TestPredictGenMovesOnFirstDelete pins the stamp on a delete: an ordered
// range's cover widens across the void code only while no row is deleted,
// so the first Delete moves the range's prediction with no append,
// re-encoding or new code space, and must move the stamp with it, on a
// plain Index and on a Synced one.
func TestPredictGenMovesOnFirstDelete(t *testing.T) {
	for _, live := range []bool{false, true} {
		oi, err := BuildOrdered([]int{1, 2, 3, 4, 5, 6, 7}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		var target rangeTarget = oi.Index()
		if live {
			target = NewSynced(oi.Index())
		}
		before := target.View()
		g0, p0 := before.PredictGen(), PredictRange(before, 1, 3)
		if err := target.Delete(4); err != nil {
			t.Fatal(err)
		}
		after := target.View()
		if PredictRange(after, 1, 3) == p0 {
			t.Fatalf("live=%v: the delete left the range's prediction at %+v", live, p0)
		}
		if after.PredictGen() == g0 {
			t.Fatalf("live=%v: PredictGen unchanged by the first delete", live)
		}
	}
}
