package core

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/boolmin"
	"repro/internal/encoding"
	"repro/internal/iostat"
	"repro/internal/obs"
)

// swappedMapping returns a clone of m with the codes of values a and b
// exchanged — the smallest encoding change that silently breaks any
// compiled program cached under the old assignment.
func swappedMapping(t *testing.T, m *encoding.Mapping[string], a, b string) *encoding.Mapping[string] {
	t.Helper()
	nm := m.Clone()
	if err := nm.Swap(a, b); err != nil {
		t.Fatal(err)
	}
	return nm
}

// TestIndexEqCacheInvalidatedOnReencode pins the regression the live
// swap made dangerous: Index.Eq memoizes compiled programs per code set, so
// a re-encoding that reassigns codes must drop them — otherwise the
// next Eq evaluates the OLD code's program against the NEW vectors and
// returns the wrong rows.
func TestIndexEqCacheInvalidatedOnReencode(t *testing.T) {
	column := []string{"a", "b", "a", "c", "b", "a"}
	ix, err := Build(column, nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Warm the code-set cache for every value.
	wantA, _ := ix.Eq("a")
	wantB, _ := ix.Eq("b")
	if wantA.Count() != 3 || wantB.Count() != 2 {
		t.Fatalf("pre-swap counts: a=%d b=%d", wantA.Count(), wantB.Count())
	}

	if err := ix.Reencode(swappedMapping(t, ix.Mapping(), "a", "b")); err != nil {
		t.Fatal(err)
	}

	gotA, _ := ix.Eq("a")
	gotB, _ := ix.Eq("b")
	if !gotA.Equal(wantA) {
		t.Fatalf("post-swap Eq(a) selects %d rows, want the same %d rows as before", gotA.Count(), wantA.Count())
	}
	if !gotB.Equal(wantB) {
		t.Fatalf("post-swap Eq(b) selects %d rows, want the same %d rows as before", gotB.Count(), wantB.Count())
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSyncedEqCacheInvalidatedOnLiveReencode is the same regression
// through the epoch path: Eq on a Synced index's view serves compiled
// programs from an encoding-generation-keyed cache, and a live Reencode
// flip must retire the whole generation.
func TestSyncedEqCacheInvalidatedOnLiveReencode(t *testing.T) {
	column := []string{"a", "b", "a", "c", "b", "a"}
	s, err := BuildSynced(column, nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	wantA, _ := s.View().Eq("a")
	wantB, _ := s.View().Eq("b")
	// Second reads come from the warmed program cache.
	againA, _ := s.View().Eq("a")
	if !againA.Equal(wantA) {
		t.Fatal("warm-cache Eq(a) diverged from the first evaluation")
	}

	if err := s.Reencode(swappedMapping(t, s.View().ix.Mapping(), "a", "b")); err != nil {
		t.Fatal(err)
	}

	gotA, _ := s.View().Eq("a")
	gotB, _ := s.View().Eq("b")
	if !gotA.Equal(wantA) {
		t.Fatalf("post-flip Eq(a) selects %d rows, want %d", gotA.Count(), wantA.Count())
	}
	if !gotB.Equal(wantB) {
		t.Fatalf("post-flip Eq(b) selects %d rows, want %d", gotB.Count(), wantB.Count())
	}
	if got, want := s.Epoch(), uint64(2); got != want {
		t.Fatalf("epoch = %d, want %d", got, want)
	}
}

// setReader is what the code-set cache tests read through: a plain Index
// or a Synced one.
type setReader interface{ View() *View[string] }

// TestCodeSetCacheInvalidated extends the Eq cases above to In and NotIn
// lists. cacheColumn's default encoding is b=1 c=2 d=3 e=4 a=5 with codes
// 6 and 7 free, so In(c, e) — and NotIn(a, b, d, z), the same code set
// while z is outside the domain — reduces to B1B0' + B2B0', which covers
// the don't-care code 6. Each change below gives code 6 to a value
// without touching the code set {2, 4}, so a reduction cached before the
// change would select that value's rows: an append of the new value z,
// which takes the lowest free code; a re-encode moving a to 6; and the
// same re-encode as a Synced live flip. After each, rows and Stats must
// equal those of a cold build under the index's current mapping.
func TestCodeSetCacheInvalidated(t *testing.T) {
	in, notIn := []string{"c", "e"}, []string{"a", "b", "d", "z"}
	movedA := func(t *testing.T, m *encoding.Mapping[string]) *encoding.Mapping[string] {
		t.Helper()
		nm := m.Clone()
		if err := nm.Rebind("a", 6); err != nil {
			t.Fatal(err)
		}
		return nm
	}
	warm := func(t *testing.T, r setReader) {
		t.Helper()
		v := r.View()
		v.In(in)
		v.NotIn(notIn)
	}
	cases := []struct {
		name string
		// run builds an index over cacheColumn, warms it, applies the
		// change and returns the index with its column after the change.
		run func(t *testing.T) (setReader, []string)
	}{
		{"Index.Append", func(t *testing.T) (setReader, []string) {
			ix := buildCacheIndex(t)
			warm(t, ix)
			if err := ix.Append("z"); err != nil {
				t.Fatal(err)
			}
			return ix, append(cacheColumn(), "z")
		}},
		{"Synced.Append", func(t *testing.T) (setReader, []string) {
			s := NewSynced(buildCacheIndex(t))
			warm(t, s)
			if err := s.Append("z"); err != nil {
				t.Fatal(err)
			}
			return s, append(cacheColumn(), "z")
		}},
		{"Index.Reencode", func(t *testing.T) (setReader, []string) {
			ix := buildCacheIndex(t)
			warm(t, ix)
			if err := ix.Reencode(movedA(t, ix.Mapping())); err != nil {
				t.Fatal(err)
			}
			return ix, cacheColumn()
		}},
		{"Synced.Reencode", func(t *testing.T) (setReader, []string) {
			s := NewSynced(buildCacheIndex(t))
			warm(t, s)
			if err := s.Reencode(movedA(t, s.View().ix.Mapping())); err != nil {
				t.Fatal(err)
			}
			return s, cacheColumn()
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r, column := tc.run(t)
			v := r.View()
			if _, taken := v.ix.mapping.ValueOf(6); !taken {
				t.Fatal("setup: the change left code 6 free")
			}
			cold, err := Build(column, nil, &Options[string]{Mapping: v.ix.Mapping()})
			if err != nil {
				t.Fatal(err)
			}
			for _, sel := range []struct {
				name      string
				got, want func([]string) (*bitvec.Vector, iostat.Stats)
				values    []string
			}{
				{"In", v.In, cold.In, in},
				{"NotIn", v.NotIn, cold.NotIn, notIn},
			} {
				got, gotSt := sel.got(sel.values)
				want, wantSt := sel.want(sel.values)
				if !got.Equal(want) || gotSt != wantSt {
					t.Errorf("%s%v selects %d rows %+v, cold build %d rows %+v",
						sel.name, sel.values, got.Count(), gotSt, want.Count(), wantSt)
				}
			}
		})
	}
}

// cacheColumn is the column of the code-set cache tests; see
// TestCodeSetCacheInvalidated for its encoding.
func cacheColumn() []string { return []string{"a", "b", "c", "d", "e", "a", "c", "e", "b"} }

// buildCacheIndex builds cacheColumn and checks the encoding the cache
// tests rely on: In(c, e)'s reduction covers the free code 6.
func buildCacheIndex(t *testing.T) *Index[string] {
	t.Helper()
	ix, err := Build(cacheColumn(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !ix.ExprFor([]string{"c", "e"}).Eval(6) || !slices.Contains(ix.dontCares(), 6) {
		t.Fatalf("setup: In(c, e) = %s with don't-cares %v does not cover code 6",
			ix.DescribeSelection([]string{"c", "e"}), ix.dontCares())
	}
	return ix
}

// TestCodeSetCacheCanonicalKey: permuted, duplicated and out-of-domain-
// padded lists of one code set share one cache entry — one miss, then
// hits — and select the same rows at the same Stats. ExprFor hands out a
// copy, so mutating it leaves the cached reduction intact.
func TestCodeSetCacheCanonicalKey(t *testing.T) {
	obs.Enable()
	t.Cleanup(obs.Disable)
	ix := buildCacheIndex(t)
	hits := obs.Default().Counter("ebi_core_expr_cache_hits_total", "")
	misses := obs.Default().Counter("ebi_core_expr_cache_misses_total", "")
	h0, m0 := hits.Value(), misses.Value()

	lists := [][]string{{"a", "d"}, {"d", "a"}, {"a", "d", "d", "a", "a"}, {"zz", "d", "q", "a", "zz"}}
	want, wantSt := ix.In(lists[0])
	for _, l := range lists[1:] {
		if got, st := ix.In(l); !got.Equal(want) || st != wantSt {
			t.Errorf("In%v selects %d rows %+v, In%v %d rows %+v", l, got.Count(), st, lists[0], want.Count(), wantSt)
		}
	}
	if got := misses.Value() - m0; got != 1 {
		t.Errorf("cache misses advanced by %d, want 1", got)
	}
	if got := hits.Value() - h0; got != uint64(len(lists)-1) {
		t.Errorf("cache hits advanced by %d, want %d", got, len(lists)-1)
	}
	if n := len(ix.cs.m); n != 2 { // In(c, e), which the setup checks, and In(a, d)
		t.Errorf("cache holds %d entries, want 2", n)
	}

	e := ix.ExprFor(lists[1])
	reduced := e.String()
	e.Cubes[0] = boolmin.Cube{Mask: ^uint32(0)} // the constant true
	if got := ix.DescribeSelection(lists[2]); got != reduced {
		t.Errorf("after mutating ExprFor's result, In%v reduces to %s, want %s", lists[2], got, reduced)
	}
}

// TestCodeSetCacheBounded: concurrent readers of one Synced snapshot look
// up three times more distinct code sets than the cache holds. The cache
// stays at its bound, and every result equals a fresh reduction's.
func TestCodeSetCacheBounded(t *testing.T) {
	const values = 12 // k = 4 with the void code: 4095 non-empty value sets
	var column []int
	for i := 0; i < 1000; i++ {
		column = append(column, i*7%values)
	}
	s, err := BuildSynced(column, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	vw := s.View()
	ix, dcs := vw.ix, vw.ix.dontCares()
	sets := rand.New(rand.NewSource(1)).Perm(1<<values - 1)[:3*progCacheCap]

	const readers = 4
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range sets {
				mask := sets[(i+g*len(sets)/readers)%len(sets)] + 1
				var list []int
				var codes []uint32
				for v := 0; v < values; v++ {
					if mask&(1<<v) != 0 {
						c, _ := ix.mapping.CodeOf(v)
						list, codes = append(list, v), append(codes, c)
					}
				}
				got, st := vw.In(list)
				want := bitvec.New(vw.Len())
				res := boolmin.Compile(boolmin.Minimize(ix.K(), codes, dcs)).EvalInto(want, ix.srcs)
				wantSt := iostat.Stats{VectorsRead: res.VectorsRead, WordsRead: res.WordsRead, BoolOps: res.Ops}
				if !got.Equal(want) || st != wantSt {
					t.Errorf("In%v selects %d rows %+v, fresh reduction %d rows %+v", list, got.Count(), st, want.Count(), wantSt)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if n := len(ix.cs.m); n != progCacheCap {
		t.Fatalf("cache holds %d entries after %d distinct code sets, want the bound %d", n, len(sets), progCacheCap)
	}
}

// TestCodeSetCacheConcurrentMiss: readers that miss one code set at the
// same moment, on a cache already at its bound, all get one reduction, and
// the cache evicts for it once: it stays at the bound and holds the set.
func TestCodeSetCacheConcurrentMiss(t *testing.T) {
	const values = 60 // k = 6 with the void code
	column := make([]int, values)
	for i := range column {
		column[i] = i
	}
	s, err := BuildSynced(column, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	ix := s.View().ix
	rng := rand.New(rand.NewSource(2))
	randomSet := func() []uint32 {
		var codes []uint32
		for _, v := range rng.Perm(values)[:values/2] {
			c, _ := ix.mapping.CodeOf(v)
			codes = append(codes, c)
		}
		return codes
	}
	for len(ix.cs.m) < progCacheCap {
		ix.reduce(randomSet())
	}

	const readers, rounds = 8, 50
	for r := 0; r < rounds; r++ {
		codes := randomSet()
		start := make(chan struct{})
		got := make([]*reduction, readers)
		var wg sync.WaitGroup
		for g := range got {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				got[g] = ix.reduce(slices.Clone(codes))
			}(g)
		}
		close(start)
		wg.Wait()
		for g, red := range got {
			if red != got[0] {
				t.Fatalf("round %d: reader %d got a different reduction of one code set than reader 0", r, g)
			}
		}
		if n := len(ix.cs.m); n != progCacheCap {
			t.Fatalf("round %d: cache holds %d entries, want the bound %d", r, n, progCacheCap)
		}
		if ix.reduce(codes) != got[0] {
			t.Fatalf("round %d: the readers' reduction is not the cached one", r)
		}
	}
}
