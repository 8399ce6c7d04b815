package core

import (
	"math/bits"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/iostat"
)

type recordedSel struct {
	values []int
	st     iostat.Stats
	min    int
}

type captureObserver struct {
	mu  sync.Mutex
	got []recordedSel
}

func (c *captureObserver) ObserveSelection(values []int, st iostat.Stats, min int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.got = append(c.got, recordedSel{values: append([]int(nil), values...), st: st, min: min})
}

func (c *captureObserver) last(t *testing.T) recordedSel {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.got) == 0 {
		t.Fatal("no selection observed")
	}
	return c.got[len(c.got)-1]
}

func (c *captureObserver) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.got)
}

func buildPlain(t *testing.T, column []int) *Index[int] {
	t.Helper()
	ix, err := Build(column, nil, &Options[int]{DisableVoidReserve: true, DisableDontCares: true})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func TestTheoreticalMinVectors(t *testing.T) {
	// Full 8-value code space, no void, no don't-cares: the bound is
	// exactly Theorem 2.2/2.3's k - v2(delta).
	column := []int{0, 1, 2, 3, 4, 5, 6, 7}
	ix := buildPlain(t, column)
	if ix.K() != 3 {
		t.Fatalf("K = %d", ix.K())
	}
	for delta, want := range map[int]int{0: 0, 1: 3, 2: 2, 3: 3, 4: 1, 5: 3, 6: 2, 7: 3, 8: 0} {
		if got := ix.TheoreticalMinVectors(delta); got != want {
			t.Errorf("TheoreticalMinVectors(%d) = %d, want %d", delta, got, want)
		}
	}
	// delta beyond the code space clamps to the whole space.
	if got := ix.TheoreticalMinVectors(100); got != 0 {
		t.Errorf("TheoreticalMinVectors(100) = %d", got)
	}

	// With don't-cares the on-set may be padded: 4 values in a 3-bit
	// space (void reserved) leave 3 free codes, so even a single value
	// could in the best encoding be answered with 1 vector (pad to a
	// 4-code fiber).
	ix2, err := Build([]int{10, 20, 30, 40}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ix2.K() != 3 {
		t.Fatalf("K = %d", ix2.K())
	}
	if got := ix2.TheoreticalMinVectors(1); got != 1 {
		t.Errorf("with don't-cares TheoreticalMinVectors(1) = %d, want 1", got)
	}
}

// TestDontCareCountMatchesList is the property behind TheoreticalMinVectors'
// free-code count: the code space's cached don't-care list equals the
// mapping's free codes less the void and NULL codes, listed afresh, with
// and without void and NULL codes, with don't-cares off, and across
// domain expansion and widening.
func TestDontCareCountMatchesList(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		col := make([]int, 1+r.Intn(40))
		nulls := make([]bool, len(col))
		card := 1 + r.Intn(20)
		for i := range col {
			col[i] = r.Intn(card)
			nulls[i] = r.Intn(6) == 0
		}
		ix, err := Build(col, nulls, &Options[int]{
			DisableVoidReserve: r.Intn(2) == 0,
			DisableDontCares:   r.Intn(4) == 0,
			NullSupport:        r.Intn(2) == 0,
		})
		if err != nil {
			t.Fatal(err)
		}
		k := ix.K()
		for v := card; ; v++ {
			if got, want := ix.dontCares(), listedDontCares(ix); !slices.Equal(got, want) {
				t.Logf("k=%d: cached %v, listed %v", ix.K(), got, want)
				return false
			}
			for delta := 0; delta <= 1<<uint(ix.K())+1; delta++ {
				if got, want := ix.TheoreticalMinVectors(delta), listedMinVectors(ix, delta); got != want {
					t.Logf("k=%d delta=%d: %d, listed %d", ix.K(), delta, got, want)
					return false
				}
			}
			if ix.K() > k {
				return true // checked after widening too
			}
			if err := ix.Append(v); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// listedDontCares lists the don't-care codes from the mapping itself.
func listedDontCares[V comparable](ix *Index[V]) []uint32 {
	var out []uint32
	for _, c := range ix.mapping.FreeCodes() {
		if ix.useDC && !(ix.reserveVoid && c == 0) && !(ix.hasNullCode && c == ix.nullCode) {
			out = append(out, c)
		}
	}
	return out
}

// listedMinVectors is the reference for TheoreticalMinVectors: the same
// bound with the don't-care set listed out.
func listedMinVectors[V comparable](ix *Index[V], delta int) int {
	k := ix.K()
	if delta <= 0 || k == 0 {
		return 0
	}
	space := 1 << uint(k)
	delta = min(delta, space)
	best := k
	for n := delta; n <= min(delta+len(listedDontCares(ix)), space) && best > 0; n++ {
		best = min(best, max(k-bits.TrailingZeros(uint(n)), 0))
	}
	return best
}

// TestTheoreticalMinVectorsZeroAllocs guards the planner's per-leaf call:
// once the code space has listed its free codes, counting them allocates
// nothing.
func TestTheoreticalMinVectorsZeroAllocs(t *testing.T) {
	col := make([]int, 2000)
	for i := range col {
		col[i] = i % 700 // k = 10 with void reserved, 323 free codes
	}
	ix, err := Build(col, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { ix.TheoreticalMinVectors(8) }); n != 0 {
		t.Fatalf("TheoreticalMinVectors allocates %.0f objects per call, want 0", n)
	}
}

func TestSelectionObserverHooks(t *testing.T) {
	column := []int{0, 1, 2, 3, 4, 5, 6, 7, 1, 2}
	ix := buildPlain(t, column)
	obs := &captureObserver{}
	ix.SetSelectionObserver(obs)

	rows, st := ix.Eq(1)
	if rows.Count() != 2 {
		t.Fatalf("Eq(1) matched %d rows", rows.Count())
	}
	got := obs.last(t)
	if !reflect.DeepEqual(got.values, []int{1}) || got.min != 3 || got.st != st {
		t.Fatalf("Eq observation = %+v", got)
	}
	if got.st.VectorsRead < got.min {
		t.Fatalf("actual %d below theoretical min %d", got.st.VectorsRead, got.min)
	}

	// In dedupes and drops out-of-domain values before observing.
	_, st = ix.In([]int{2, 3, 3, 99})
	got = obs.last(t)
	if !reflect.DeepEqual(got.values, []int{2, 3}) || got.min != 2 || got.st != st {
		t.Fatalf("In observation = %+v", got)
	}

	// NotIn observes the included complement.
	_, _ = ix.NotIn([]int{0, 1, 2, 3})
	got = obs.last(t)
	if !reflect.DeepEqual(got.values, []int{4, 5, 6, 7}) || got.min != 1 {
		t.Fatalf("NotIn observation = %+v", got)
	}

	// Out-of-domain selections are not observed at all.
	before := obs.count()
	_, _ = ix.Eq(99)
	_, _ = ix.In([]int{99, 100})
	if obs.count() != before {
		t.Fatal("out-of-domain selection was observed")
	}

	// A repeated selection observes on every evaluation, cached or not.
	before = obs.count()
	_, _ = ix.In([]int{4, 5})
	_, _ = ix.In([]int{4, 5})
	if obs.count() != before+2 {
		t.Fatalf("repeated In observed %d times, want 2", obs.count()-before)
	}
	got = obs.last(t)
	if !reflect.DeepEqual(got.values, []int{4, 5}) || got.min != 2 {
		t.Fatalf("repeated In observation = %+v", got)
	}

	// Parallel evaluation observes identically to sequential.
	_, stPar := ix.InParallel([]int{2, 3}, 4, nil)
	got = obs.last(t)
	if !reflect.DeepEqual(got.values, []int{2, 3}) || got.st != stPar {
		t.Fatalf("InParallel observation = %+v", got)
	}

	// Removal stops observation.
	ix.SetSelectionObserver(nil)
	before = obs.count()
	_, _ = ix.Eq(1)
	if obs.count() != before {
		t.Fatal("observer still firing after removal")
	}
}

func TestSyncedObserverAndPlanReencode(t *testing.T) {
	s, err := BuildSynced([]int{1, 2, 3, 4, 1, 2}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	obs := &captureObserver{}
	s.SetSelectionObserver(obs)
	_, _ = s.View().Eq(1)
	got := obs.last(t)
	if !reflect.DeepEqual(got.values, []int{1}) {
		t.Fatalf("Eq observation on the live view = %+v", got)
	}
	if s.TheoreticalMinVectors(1) != 1 { // 4 values + void in 3 bits: 3 don't-cares
		t.Fatalf("Synced.TheoreticalMinVectors(1) = %d", s.TheoreticalMinVectors(1))
	}

	plan, err := s.PlanReencode([][]int{{1, 2}, {1, 2}, {3}}, []int{5, 5, 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plan.CurrentCost <= 0 || plan.NewCost <= 0 || plan.NewCost > plan.CurrentCost {
		t.Fatalf("plan costs current=%d new=%d", plan.CurrentCost, plan.NewCost)
	}
	// Same workload offline on the unwrapped index must price identically
	// (FindEncoding is deterministic).
	var offline *ReencodePlan[int]
	if err := s.WithReadLock(func(ix *Index[int]) error {
		var e error
		offline, e = ix.PlanReencode([][]int{{1, 2}, {1, 2}, {3}}, []int{5, 5, 1}, nil)
		return e
	}); err != nil {
		t.Fatal(err)
	}
	if offline.CurrentCost != plan.CurrentCost || offline.NewCost != plan.NewCost ||
		offline.RebuildVectors != plan.RebuildVectors {
		t.Fatalf("offline plan %+v differs from synced plan %+v", offline, plan)
	}
}
