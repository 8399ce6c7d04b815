package core

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bitvec"
	"repro/internal/encoding"
)

// permutedMapping builds a fresh well-formed mapping over the given
// values: k bits sized for the domain plus void and NULL headroom, codes
// drawn without replacement from [1, 2^k) in a seeded shuffle. Code 0
// stays free (Theorem 2.1) and at least one non-zero code stays free for
// the NULL re-pick.
func permutedMapping(r *rand.Rand, values []int64) *encoding.Mapping[int64] {
	k := encoding.BitsFor(len(values) + 2)
	codes := make([]uint32, 0, (1<<uint(k))-1)
	for c := uint32(1); c < 1<<uint(k); c++ {
		codes = append(codes, c)
	}
	r.Shuffle(len(codes), func(i, j int) { codes[i], codes[j] = codes[j], codes[i] })
	m := encoding.NewMapping[int64](k)
	for i, v := range values {
		m.MustAdd(v, codes[i])
	}
	return m
}

// TestSyncedSwapStress hammers one Synced index from concurrent readers
// (Eq, In, EqInto, a repeated In), a writer (appends including
// domain expansion, NULLs, and deletes), and a swapper repeatedly
// applying live re-encodings. Run under -race this is the epoch
// scheme's main torture test. It asserts:
//
//   - no reader ever observes a shrinking index (a stale-epoch read
//     after a newer one would show up as a length regression),
//   - every evaluation's VectorsRead stays within the code-space bound,
//   - the epoch counter advances exactly once per successful swap and
//     the final contents match a from-scratch build (no lost appends,
//     no leaked shadow rows),
//   - every goroutine exits (no leaked shadow rebuild state).
func TestSyncedSwapStress(t *testing.T) {
	baseGoroutines := runtime.NumGoroutine()

	const (
		nBase    = 2000
		card     = 16
		readers  = 4
		readerOp = 400
		writerOp = 1500
	)
	column := make([]int64, nBase)
	for i := range column {
		column[i] = int64(i % card)
	}
	s, err := BuildSynced(column, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	s.foldThreshold = 256

	// The code space can only grow: card base values + novel appends +
	// void + NULL, re-encoded into BitsFor(domain+2) bits at most.
	const maxNovel = writerOp/97 + 1
	maxK := encoding.BitsFor(card+maxNovel+2) + 1

	var (
		wg          sync.WaitGroup
		stopSwaps   = make(chan struct{})
		swapperDone = make(chan struct{})
		swaps       atomic.Uint64
	)

	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(1000 + g)))
			fixed := []int64{2, 3, 5} // repeats: served from the code-set cache
			lastLen := 0
			check := func(op string, rows *bitvec.Vector, vectorsRead int) {
				if rows.Len() < lastLen {
					t.Errorf("reader %d: %s saw %d rows after %d — stale epoch", g, op, rows.Len(), lastLen)
				}
				lastLen = rows.Len()
				if vectorsRead > maxK {
					t.Errorf("reader %d: %s read %d vectors, bound %d", g, op, vectorsRead, maxK)
				}
			}
			for i := 0; i < readerOp; i++ {
				switch i % 4 {
				case 0:
					rows, st := s.View().Eq(int64(r.Intn(card)))
					check("Eq", rows, st.VectorsRead)
				case 1:
					rows, st := s.In([]int64{int64(r.Intn(card)), int64(r.Intn(card))})
					check("In", rows, st.VectorsRead)
				case 2:
					v := s.View()
					dst := bitvec.New(v.Len())
					st := v.EqInto(int64(r.Intn(card)), dst)
					check("EqInto", dst, st.VectorsRead)
				default:
					rows, st := s.In(fixed)
					check("In(fixed)", rows, st.VectorsRead)
				}
			}
		}(g)
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < writerOp; i++ {
			switch {
			case i%97 == 0:
				if err := s.Append(int64(card + i/97)); err != nil { // novel value
					t.Errorf("append novel: %v", err)
				}
			case i%53 == 0:
				if err := s.AppendNull(); err != nil {
					t.Errorf("append null: %v", err)
				}
			case i%31 == 0:
				if err := s.Delete(i % s.Len()); err != nil {
					t.Errorf("delete: %v", err)
				}
			default:
				if err := s.Append(int64(i % card)); err != nil {
					t.Errorf("append: %v", err)
				}
			}
		}
	}()

	go func() {
		defer close(swapperDone)
		r := rand.New(rand.NewSource(42))
		for {
			select {
			case <-stopSwaps:
				return
			default:
			}
			// The domain may grow between Values() and the rebuild; a
			// coverage error is then expected — retry with a fresh view.
			if err := s.Reencode(permutedMapping(r, s.Values())); err == nil {
				swaps.Add(1)
			}
			time.Sleep(time.Millisecond)
		}
	}()

	// Let readers and writer finish under active swapping, then stop.
	wg.Wait()
	close(stopSwaps)
	<-swapperDone

	if swaps.Load() == 0 {
		t.Fatal("no live re-encoding succeeded during the stress run")
	}
	if got, want := s.Epoch(), 1+swaps.Load(); got != want {
		t.Fatalf("epoch = %d, want %d (one flip per successful swap)", got, want)
	}

	// Quiescent differential: the live contents must equal a from-scratch
	// build of the decoded rows under the final mapping.
	var (
		col2  []int64
		nulls []bool
	)
	voidRows := map[int]bool{}
	if err := s.WithReadLock(func(ix *Index[int64]) error {
		if err := ix.CheckInvariants(); err != nil {
			return err
		}
		for row := 0; row < ix.Len(); row++ {
			v, isNull, ok := ix.DecodeRow(row)
			switch {
			case ok:
				col2 = append(col2, v)
				nulls = append(nulls, false)
			case isNull:
				col2 = append(col2, 0)
				nulls = append(nulls, true)
			default:
				// Voided row: rebuild as a live placeholder, re-void after.
				voidRows[row] = true
				col2 = append(col2, s.Values()[0])
				nulls = append(nulls, false)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	fresh, err := Build(col2, nulls, &Options[int64]{Mapping: s.View().ix.Mapping()})
	if err != nil {
		t.Fatal(err)
	}
	for row := range voidRows {
		if err := fresh.Delete(row); err != nil {
			t.Fatal(err)
		}
	}
	probes := [][]int64{{0}, {1, 2}, {3, 4, 5}, {card - 1, int64(card)}}
	for _, p := range probes {
		gotRows, _ := s.In(p)
		wantRows, _ := fresh.In(p)
		if !gotRows.Equal(wantRows) {
			t.Fatalf("final In(%v): live %d rows, from-scratch %d — contents diverged",
				p, gotRows.Count(), wantRows.Count())
		}
	}
	gotNull, _ := s.View().IsNull()
	wantNull, _ := fresh.IsNull()
	if !gotNull.Equal(wantNull) {
		t.Fatalf("final IsNull: live %d, from-scratch %d", gotNull.Count(), wantNull.Count())
	}

	// Leak guard, borrowed from the drift watcher's Stop test: all
	// rebuild machinery is synchronous, so the goroutine count must
	// return to the baseline.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseGoroutines && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseGoroutines {
		t.Fatalf("%d goroutines alive after the stress run, started with %d", n, baseGoroutines)
	}
}
