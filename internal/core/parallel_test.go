package core

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/bitvec"
)

func buildIntIndex(t *testing.T, r *rand.Rand, n, card int) (*Index[int64], []int64) {
	t.Helper()
	col := make([]int64, n)
	for i := range col {
		col[i] = int64(r.Intn(card))
	}
	ix, err := Build(col, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return ix, col
}

func TestInParallelMatchesSequential(t *testing.T) {
	sizes := []int{100, bitvec.SegmentBits, bitvec.SegmentBits + 63, 2*bitvec.SegmentBits + 999}
	for seed := int64(0); seed < 8; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := sizes[r.Intn(len(sizes))]
		card := 2 + r.Intn(30)
		ix, _ := buildIntIndex(t, r, n, card)
		for trial := 0; trial < 5; trial++ {
			width := 1 + r.Intn(card)
			vals := make([]int64, 0, width)
			for v := 0; v < width; v++ {
				vals = append(vals, int64(v))
			}
			seqRows, seqSt := ix.In(vals)
			for _, degree := range []int{1, 2, 4, 16} {
				parRows, parSt := ix.InParallel(vals, degree, nil)
				if !parRows.Equal(seqRows) {
					t.Fatalf("seed=%d degree=%d: parallel rows differ", seed, degree)
				}
				if parSt != seqSt {
					t.Fatalf("seed=%d degree=%d: stats %+v, want %+v", seed, degree, parSt, seqSt)
				}
			}
		}
	}
}

func TestEqParallelMatchesEq(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	ix, col := buildIntIndex(t, r, bitvec.SegmentBits+500, 12)
	rows, _ := ix.Eq(col[0])
	parRows, _ := ix.InParallel([]int64{col[0]}, 4, nil)
	if !parRows.Equal(rows) {
		t.Fatal("parallel point selection rows differ from Eq")
	}
	// Stats equality is checked against the sequential In path, which
	// evaluates the same cached reduction of the one-code set.
	seqRows, seqSt := ix.In([]int64{col[1]})
	parRows, parSt := ix.InParallel([]int64{col[1]}, 4, nil)
	if !parRows.Equal(seqRows) || parSt != seqSt {
		t.Fatalf("parallel point selection = (%d rows, %+v), want (%d rows, %+v)",
			parRows.Count(), parSt, seqRows.Count(), seqSt)
	}
}

// TestSyncedParallelUnderConcurrentAppend is the -race stress test: readers
// hammer InParallel against a synced index while a writer appends, and
// every observed row set must be internally consistent — the counts for a
// value set that is never appended can only ever match the base build.
func TestSyncedParallelUnderConcurrentAppend(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	n := 2*bitvec.SegmentBits + 123
	if testing.Short() {
		n = bitvec.SegmentBits / 4
	}
	col := make([]int64, n)
	for i := range col {
		col[i] = int64(r.Intn(8))
	}
	s, err := BuildSynced(col, nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	baseRows, _ := s.In([]int64{2, 3})
	baseCount := baseRows.Count()
	baseLen := s.Len()

	appends := 200
	readers := 4
	if testing.Short() {
		appends, readers = 50, 2
	}

	var wg sync.WaitGroup
	var failed atomic.Bool
	fail := func(format string, args ...any) {
		if failed.CompareAndSwap(false, true) {
			t.Errorf(format, args...)
		}
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		// Append only the value 1: the {2,3} result set must stay frozen.
		for i := 0; i < appends; i++ {
			if err := s.Append(1); err != nil {
				fail("append: %v", err)
				return
			}
		}
	}()
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < appends/2; i++ {
				rows, _ := s.View().InParallel([]int64{2, 3}, 4, nil)
				if got := rows.Count(); got != baseCount {
					fail("reader %d: count %d, want stable %d", g, got, baseCount)
					return
				}
				if l := rows.Len(); l < baseLen || l > baseLen+appends {
					fail("reader %d: result length %d outside [%d,%d]", g, l, baseLen, baseLen+appends)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	if got := s.Len(); got != baseLen+appends {
		t.Fatalf("final length %d, want %d", got, baseLen+appends)
	}
	finalRows, _ := s.View().InParallel([]int64{2, 3}, 4, nil)
	if finalRows.Count() != baseCount {
		t.Fatalf("final {2,3} count %d, want %d", finalRows.Count(), baseCount)
	}
	ones, _ := s.View().InParallel([]int64{1}, 4, nil)
	wantOnes := appends
	for _, v := range col {
		if v == 1 {
			wantOnes++
		}
	}
	if ones.Count() != wantOnes {
		t.Fatalf("final value-1 count %d, want %d", ones.Count(), wantOnes)
	}
}
