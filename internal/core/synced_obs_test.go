package core

import (
	"sync"
	"testing"

	"repro/internal/obs"
)

// TestSyncedConcurrentWithTelemetry stress-tests Synced under concurrent
// readers and writers with telemetry enabled, so `go test -race
// ./internal/core ./internal/obs` proves both the index locking and the
// obs counters race-free. The counter reads below run concurrently with
// the instrumented hot paths on purpose.
func TestSyncedConcurrentWithTelemetry(t *testing.T) {
	obs.Enable()
	t.Cleanup(obs.Disable)

	column := make([]string, 200)
	vals := []string{"a", "b", "c", "d", "e"}
	for i := range column {
		column[i] = vals[i%len(vals)]
	}
	s, err := BuildSynced(column, nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	evals := obs.Default().Counter("ebi_core_evals_total", "")
	appends := obs.Default().Counter("ebi_core_appends_total", "")
	evalsBefore, appendsBefore := evals.Value(), appends.Value()

	const (
		readers       = 4
		writers       = 2
		opsPerWorker  = 300
		snapshotReads = 100
	)
	var wg sync.WaitGroup
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < opsPerWorker; i++ {
				switch i % 4 {
				case 0:
					rows, _ := s.View().Eq(vals[i%len(vals)])
					_ = rows.Count()
				case 1:
					rows, _ := s.In(vals[:2+i%3])
					_ = rows.Any()
				case 2:
					_, _ = s.View().Existing()
				case 3:
					_ = s.Len()
				}
			}
		}(w)
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < opsPerWorker; i++ {
				if i%10 == 9 {
					_ = s.Delete(i % 100)
					continue
				}
				if err := s.Append(vals[(i+w)%len(vals)]); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	// Concurrent telemetry readers: counter loads and full expositions.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < snapshotReads; i++ {
			_ = evals.Value()
			_ = obs.Default().Snapshot()
		}
	}()
	wg.Wait()

	if err := s.WithReadLock(func(ix *Index[string]) error { return ix.CheckInvariants() }); err != nil {
		t.Fatal(err)
	}
	if got := evals.Value() - evalsBefore; got == 0 {
		t.Fatal("eval counter did not move under concurrent reads")
	}
	// Every non-delete writer op appended exactly one tuple.
	wantAppends := uint64(writers * opsPerWorker * 9 / 10)
	if got := appends.Value() - appendsBefore; got != wantAppends {
		t.Fatalf("append counter advanced by %d, want %d", got, wantAppends)
	}
}
