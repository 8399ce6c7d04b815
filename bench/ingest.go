package main

import (
	"fmt"
	"math/rand"
	"os"
	"sync"
	"time"

	"repro/internal/bitvec"
	"repro/internal/core"
	"repro/internal/iostat"
	"repro/internal/query"
	"repro/internal/table"
)

// The ingest workload serves a core.Synced EBI on product through an
// Executor with telemetry on — the `ebicli serve` configuration — while an
// open-loop writer appends and deletes and an admin goroutine re-encodes
// the index live halfway through the read window.
const (
	ingestRows   = 1_000_000
	batchRows    = 1000
	batchPeriod  = 10 * time.Millisecond // 100,000 rows/s offered
	ingestChecks = 64
	ingestSetups = 5

	// Reference-table markers. A deleted row holds a value no query
	// selects, so like a voided index row it matches nothing, IS NULL
	// included, and only NOT selects it.
	refNull    = -2
	refDeleted = -1
)

type ingestSystem struct {
	sx *core.Synced[int64]
	ex *query.Executor
	// ref mirrors the index row for row (refNull/refDeleted markers), for
	// the scan reference built after the writer stops.
	ref []int64
}

func setupIngest(seed int64, rows int) (*ingestSystem, error) {
	star, err := buildStar(rng(seed, 0), starOf(rows))
	if err != nil {
		return nil, err
	}
	fact := star.Fact
	sx, err := core.BuildSynced(ints(fact, "product"), nil, nil)
	if err != nil {
		return nil, err
	}
	ex := query.NewExecutor(fact)
	ex.Use("product", query.SyncedEBIInt{Ix: sx})
	return &ingestSystem{sx: sx, ex: ex, ref: append([]int64(nil), ints(fact, "product")...)}, nil
}

// ingestLoad is what one read window under writes measured.
type ingestLoad struct {
	reads      []float64 // per-query latency, ms
	probes     probeLog  // around the reads
	readSecs   float64
	vectors    int
	errors     int
	batches    []float64 // per-batch latency from its due time, ms
	appendsNS  []float64 // per-row Append call, ns (timed only when asked)
	appended   int
	writerSecs float64
	planSecs   float64
	flipSecs   float64
}

// load runs the reader for window while the writer appends at the
// offered rate and the admin re-encodes at half time.
func (is *ingestSystem) load(seed int64, cfg starConfig, window time.Duration, timeAppends bool) (*ingestLoad, error) {
	next := ingestReads(rng(seed, 1), cfg)
	l := &ingestLoad{}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var writerErr, adminErr error
	start := time.Now()

	wg.Add(2)
	go func() {
		defer wg.Done()
		writerErr = is.write(rng(seed, 2), cfg, start, stop, l, timeAppends)
	}()
	go func() {
		defer wg.Done()
		select {
		case <-stop:
			return
		case <-time.After(window / 2):
		}
		adminErr = is.reencode(seed, cfg, l)
	}()

	l.probes = probeLog{probe()}
	for deadline := start.Add(window); time.Now().Before(deadline); {
		p := next()
		t0 := time.Now()
		_, st, err := is.ex.Eval(p)
		l.reads = append(l.reads, float64(time.Since(t0))/1e6)
		l.probes = append(l.probes, probe())
		if err != nil {
			l.errors++
			continue
		}
		l.vectors += st.VectorsRead
	}
	l.readSecs = time.Since(start).Seconds()
	close(stop)
	wg.Wait()
	if writerErr != nil {
		return nil, writerErr
	}
	if adminErr != nil {
		return nil, adminErr
	}
	is.sx.Flush()
	return l, nil
}

// write is the open-loop writer: a batch of batchRows rows is due every
// batchPeriod, 1% of them NULL, plus one delete of a random row.
func (is *ingestSystem) write(r *rand.Rand, cfg starConfig, start time.Time, stop <-chan struct{}, l *ingestLoad, timeAppends bool) error {
	z := rand.NewZipf(r, 1.2, 1, uint64(cfg.Products-1))
	for b := 0; ; b++ {
		due := start.Add(time.Duration(b) * batchPeriod)
		select {
		case <-stop:
			l.writerSecs = time.Since(start).Seconds()
			return nil
		case <-time.After(time.Until(due)):
		}
		for i := 0; i < batchRows; i++ {
			var a0 time.Time
			if timeAppends {
				a0 = time.Now()
			}
			v := int64(refNull)
			var err error
			if r.Intn(100) == 0 {
				err = is.sx.AppendNull()
			} else {
				v = int64(z.Uint64())
				err = is.sx.Append(v)
			}
			if err != nil {
				return fmt.Errorf("append: %w", err)
			}
			is.ref = append(is.ref, v)
			if timeAppends {
				l.appendsNS = append(l.appendsNS, float64(time.Since(a0)))
			}
		}
		row := r.Intn(len(is.ref))
		if err := is.sx.Delete(row); err != nil {
			return fmt.Errorf("delete row %d: %w", row, err)
		}
		is.ref[row] = refDeleted
		l.appended += batchRows
		l.batches = append(l.batches, float64(time.Since(due))/1e6)
	}
}

// reencode plans an encoding for the reader's first IN and range value
// lists and flips to it live. An append that expands the domain between
// planning and the flip invalidates the plan; it is then planned again.
func (is *ingestSystem) reencode(seed int64, cfg starConfig, l *ingestLoad) error {
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		mapped := make(map[int64]bool)
		for _, v := range is.sx.Values() {
			mapped[v] = true
		}
		preds := reencodeWorkload(seed, cfg, mapped)
		t0 := time.Now()
		var plan *core.ReencodePlan[int64]
		plan, err = is.sx.PlanReencode(preds, nil, nil)
		if err != nil {
			return fmt.Errorf("plan re-encoding: %w", err)
		}
		t1 := time.Now()
		if err = is.sx.Reencode(plan.Mapping); err == nil {
			l.planSecs = t1.Sub(t0).Seconds()
			l.flipSecs = time.Since(t1).Seconds()
			return nil
		}
	}
	return fmt.Errorf("re-encode: %w", err)
}

// reencodeWorkload returns the value lists of the first 32 IN and range
// reads of the reader's stream, restricted to mapped values.
func reencodeWorkload(seed int64, cfg starConfig, mapped map[int64]bool) [][]int64 {
	next := ingestReads(rng(seed, 1), cfg)
	var preds [][]int64
	for len(preds) < 32 {
		var vals []int64
		switch p := next().(type) {
		case query.In:
			vals = nonNull(p.Vals)
		case query.Range:
			for v := p.Lo; v <= p.Hi; v++ {
				vals = append(vals, v)
			}
		default:
			continue
		}
		var keep []int64
		for _, v := range vals {
			if mapped[v] {
				keep = append(keep, v)
			}
		}
		if len(keep) > 0 {
			preds = append(preds, keep)
		}
	}
	return preds
}

// referenceExecutor is a scan-only executor over the rows the index holds.
func (is *ingestSystem) referenceExecutor() (*query.Executor, error) {
	t := table.MustNew("SALES", table.NewColumn("product", table.Int64))
	for _, v := range is.ref {
		c := table.IntCell(v)
		if v == refNull {
			c = table.NullCell()
		}
		if err := t.AppendRow(c); err != nil {
			return nil, err
		}
	}
	return query.NewExecutor(t), nil
}

// check compares ingestChecks reads against the scan reference and
// returns the mismatches. Telemetry stays as configured.
func (is *ingestSystem) check(seed int64, cfg starConfig) (int, error) {
	ref, err := is.referenceExecutor()
	if err != nil {
		return 0, err
	}
	next := ingestReads(rng(seed, 3), cfg)
	bad := 0
	for i := 0; i < ingestChecks; i++ {
		p := next()
		got, _, err := is.ex.Eval(p)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", p, err)
		}
		want, _, err := ref.Eval(p)
		if err != nil {
			return 0, fmt.Errorf("reference %s: %w", p, err)
		}
		if !got.Equal(want) {
			bad++
			fmt.Fprintf(os.Stderr, "mismatch: %s: %d rows, reference scan %d\n", p, got.Count(), want.Count())
		}
	}
	return bad, nil
}

// snapshot returns the live base index, which holds every row once the
// tail is folded. It must not be mutated.
func (is *ingestSystem) snapshot() *core.Index[int64] {
	var snap *core.Index[int64]
	_ = is.sx.WithReadLock(func(ix *core.Index[int64]) error { // fn never fails
		snap = ix
		return nil
	})
	return snap
}

// target returns the traced run's view of the quiescent index.
func (is *ingestSystem) target() target {
	leaf := syncedLeaf(is.sx, is.snapshot())
	return target{
		eval: func(p query.Predicate) (*bitvec.Vector, iostat.Stats, []query.Choice, error) {
			rows, st, err := is.ex.Eval(p)
			return rows, st, nil, err
		},
		leaf: func(*query.PlanNode) (leafRunner, error) { return leaf, nil },
	}
}
