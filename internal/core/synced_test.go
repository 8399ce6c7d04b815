package core

import (
	"sync"
	"testing"
)

func TestSyncedBasics(t *testing.T) {
	s, err := BuildSynced([]string{"a", "b", "a"}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 3 || s.Cardinality() != 2 || s.K() == 0 {
		t.Fatal("accessors wrong")
	}
	rows, _ := s.View().Eq("a")
	if rows.String() != "101" {
		t.Fatalf("Eq = %s", rows.String())
	}
	rows, _ = s.In([]string{"a", "b"})
	if rows.Count() != 3 {
		t.Fatal("In wrong")
	}
	if err := s.Append("c"); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendNull(); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(0); err != nil {
		t.Fatal(err)
	}
	nulls, _ := s.View().IsNull()
	if nulls.Count() != 1 {
		t.Fatal("IsNull wrong")
	}
	ex, _ := s.View().Existing()
	if ex.Count() != 3 { // 5 rows - 1 void - 1 null
		t.Fatalf("Existing = %d", ex.Count())
	}
	notIn, _ := s.View().NotIn([]string{"a"})
	if notIn.Count() != 2 { // b and c
		t.Fatalf("NotIn = %d", notIn.Count())
	}
	if err := s.WithReadLock(func(ix *Index[string]) error { return nil }); err != nil {
		t.Fatal(err)
	}
}

// TestSyncedConcurrentAccess hammers the wrapper with parallel readers
// and writers; run with -race to validate the locking discipline.
func TestSyncedConcurrentAccess(t *testing.T) {
	s, err := BuildSynced([]int{0, 1, 2, 3}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Writers: appends with domain expansion and deletes.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				if err := s.Append(i % 40); err != nil {
					t.Error(err)
					return
				}
				if i%17 == 0 {
					_ = s.Delete(i % s.Len())
				}
			}
		}(w)
	}
	// Readers: point and list selections plus aggregates via the read
	// hook.
	for rdr := 0; rdr < 4; rdr++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rows, st := s.In([]int{1, 2, 3})
				if st.VectorsRead > s.K() {
					t.Error("cost exceeded k")
					return
				}
				_ = rows.Count()
				if _, st := s.View().Eq(5); st.VectorsRead > s.K() {
					t.Error("Eq cost exceeded k")
					return
				}
				err := s.WithReadLock(func(ix *Index[int]) error {
					sel, _ := ix.In([]int{0})
					_, _ = ix.Histogram(sel)
					return nil
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	// One consistency pass concurrent with the writers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		err := s.WithReadLock(func(ix *Index[int]) error {
			return ix.CheckInvariants()
		})
		if err != nil {
			t.Error(err)
		}
	}()

	// Let writers finish, then stop readers.
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	// Writers have bounded work; spin (bounded) until they finish, then
	// stop the readers.
	for spin := 0; spin < 1<<22 && s.Len() < 4+2*300; spin++ {
		rows, _ := s.In([]int{7})
		_ = rows
	}
	close(stop)
	<-done

	if err := s.WithReadLock(func(ix *Index[int]) error { return ix.CheckInvariants() }); err != nil {
		t.Fatal(err)
	}
}
