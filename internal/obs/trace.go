package obs

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/iostat"
)

// Span is one traced operation: a named interval with the evaluation's
// iostat.Stats, free-form attributes (plan choice, predicate shape,
// minimized-expression size, cache hit/miss, ...), and per-span resource
// deltas (CPU time and heap allocation). Spans form a tree: StartSpan
// nests under the span already in the context, StartChild/StartDetached
// nest explicitly, and only the root of a tree enters the tracer ring —
// /traces renders whole trees.
//
// A span is built on a single goroutine and becomes immutable once End
// is called; the tracer ring and /traces readers only see finished
// trees. Children must End before their parent does (detached worker
// spans End before the fork-join barrier releases the parent).
//
// All methods are safe on a nil receiver, which is what StartSpan
// returns while telemetry is disabled — instrumented code needs no
// enabled-checks of its own.
type Span struct {
	ID         uint64         `json:"id"`
	ParentID   uint64         `json:"parent_id,omitempty"`
	TraceID    uint64         `json:"trace_id"`
	Name       string         `json:"name"`
	Start      time.Time      `json:"start"`
	DurationNS int64          `json:"duration_ns"`
	Err        string         `json:"error,omitempty"`
	Stats      iostat.Stats   `json:"stats"`
	Attrs      map[string]any `json:"attrs,omitempty"`

	// Resource attribution, filled in at End. CPUNanos is the span
	// goroutine's thread CPU time, never less than the sum of its
	// same-thread children's, plus the CPU of its detached descendants
	// (parallel workers), so a root span's CPU is the whole query's and
	// no parent reads below its children. AllocBytes/AllocObjects are
	// process-global heap-alloc deltas over the span window: exact for a
	// single query, an approximation under concurrent load (documented
	// in docs/observability.md).
	CPUNanos     int64  `json:"cpu_ns"`
	AllocBytes   uint64 `json:"alloc_bytes"`
	AllocObjects uint64 `json:"allocs"`

	// Children are sub-spans that finished under this span: plan
	// nodes, fused blocks, parallel workers, page fetches.
	Children []*Span `json:"children,omitempty"`

	tracer   *Tracer
	parent   *Span
	detached bool // ended on a different goroutine than the parent
	res      resSnap
	kidsCPU  atomic.Int64 // own CPU of same-thread children: a floor for sp's own
	extCPU   atomic.Int64 // CPU of other threads: detached descendants'
	childMu  sync.Mutex
	labelCtx context.Context // pprof label set for worker goroutines
}

// SetLabelCtx stashes the context carrying the evaluation's pprof label
// set (the ctx pprof.Do passes to its body). Pool helper goroutines are
// persistent, so they inherit nothing from the caller — the fork-join
// reads this back via LabelCtx and applies the labels explicitly.
// Nil-safe; set it before handing the span to other goroutines.
func (sp *Span) SetLabelCtx(ctx context.Context) {
	if sp == nil {
		return
	}
	sp.labelCtx = ctx
}

// LabelCtx returns the context stored by SetLabelCtx, or nil. Nil-safe.
func (sp *Span) LabelCtx() context.Context {
	if sp == nil {
		return nil
	}
	return sp.labelCtx
}

var spanIDs atomic.Uint64

type spanKey struct{}

func newSpan(name string, parent *Span, tracer *Tracer) *Span {
	sp := &Span{
		ID:     spanIDs.Add(1),
		Name:   name,
		Start:  time.Now(),
		parent: parent,
		tracer: tracer,
	}
	if parent != nil {
		sp.ParentID = parent.ID
		sp.TraceID = parent.TraceID
	} else {
		sp.TraceID = sp.ID
	}
	sp.res = takeResSnap()
	return sp
}

// StartSpan begins a span on the default tracer and attaches it to the
// context so nested code can annotate it via SpanFromContext. If the
// context already carries a span, the new span becomes its child and
// the returned context points at the child. While telemetry is disabled
// it returns (ctx, nil) and costs one atomic load.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	if !enabled.Load() {
		return ctx, nil
	}
	sp := newSpan(name, SpanFromContext(ctx), DefaultTracer())
	return context.WithValue(ctx, spanKey{}, sp), sp
}

// StartChild begins a child span on the same goroutine as sp. It
// returns nil on a nil receiver, so callers holding a disabled-path nil
// span stay nil-safe without checks.
func (sp *Span) StartChild(name string) *Span {
	if sp == nil {
		return nil
	}
	return newSpan(name, sp, sp.tracer)
}

// StartDetached begins a child span that runs — and Ends — on a
// different goroutine than sp (a parallel worker). Call it, and End, on
// the worker goroutine: the goroutine stays locked to its OS thread
// until End, so the thread CPU clock measures exactly the worker's time
// even if the scheduler preempts it. At End the child's CPU is added to
// sp, whose own thread clock cannot see the
// worker's time; the child must End before sp does (fork-join workers
// End before the join releases the caller). Nil-safe.
func (sp *Span) StartDetached(name string) *Span {
	if sp == nil {
		return nil
	}
	runtime.LockOSThread()
	child := newSpan(name, sp, sp.tracer)
	child.detached = true
	return child
}

// SpanFromContext returns the span attached by StartSpan, or nil.
func SpanFromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	sp, _ := ctx.Value(spanKey{}).(*Span)
	return sp
}

// SetAttr records one attribute.
func (sp *Span) SetAttr(key string, value any) {
	if sp == nil {
		return
	}
	if sp.Attrs == nil {
		sp.Attrs = make(map[string]any)
	}
	sp.Attrs[key] = value
}

// SetStats records the evaluation's access-cost accounting. The span
// carries the Stats value verbatim, so a trace and the caller-visible
// return cost are the same numbers by construction.
func (sp *Span) SetStats(st iostat.Stats) {
	if sp == nil {
		return
	}
	sp.Stats = st
}

// SetError records a failure.
func (sp *Span) SetError(err error) {
	if sp == nil || err == nil {
		return
	}
	sp.Err = err.Error()
}

// End finishes the span: the duration and resource deltas are fixed,
// and the span attaches to its parent — or, for a root, is pushed into
// its tracer's ring. End must be called at most once; the span must not
// be mutated afterwards.
func (sp *Span) End() {
	if sp == nil {
		return
	}
	sp.DurationNS = time.Since(sp.Start).Nanoseconds()
	end := takeResSnap()
	if sp.detached {
		runtime.UnlockOSThread()
	}
	// A goroutine that blocked inside the window (a fork-join caller
	// waiting for its helpers) can resume on another thread, whose
	// clock is unrelated to the one read at start. The window covers its
	// same-thread children's, so their own CPU is a floor for sp's.
	own := max(end.cpuNS-sp.res.cpuNS, sp.kidsCPU.Load())
	ext := sp.extCPU.Load()
	sp.CPUNanos = own + ext
	if end.allocBytes >= sp.res.allocBytes {
		sp.AllocBytes = end.allocBytes - sp.res.allocBytes
	}
	if end.allocObjs >= sp.res.allocObjs {
		sp.AllocObjects = end.allocObjs - sp.res.allocObjs
	}
	if sp.parent != nil {
		if sp.detached {
			// The parent's thread clock never saw this worker's time.
			// Alloc counters are process-global, so the parent's own
			// window already includes the worker's allocations.
			sp.parent.extCPU.Add(sp.CPUNanos)
		} else {
			// The parent's window covers this span's own CPU but, like
			// this span's, not its detached descendants'.
			sp.parent.kidsCPU.Add(own)
			sp.parent.extCPU.Add(ext)
		}
		sp.parent.childMu.Lock()
		sp.parent.Children = append(sp.parent.Children, sp)
		sp.parent.childMu.Unlock()
		return
	}
	if sp.tracer != nil {
		sp.tracer.add(sp)
	}
}

// Seconds returns the span duration in seconds.
func (sp *Span) Seconds() float64 {
	if sp == nil {
		return 0
	}
	return float64(sp.DurationNS) / 1e9
}

// Walk visits sp and every descendant, parents before children.
func (sp *Span) Walk(fn func(*Span)) {
	if sp == nil {
		return
	}
	fn(sp)
	for _, c := range sp.Children {
		c.Walk(fn)
	}
}

// Tracer keeps a bounded ring of the most recent finished root spans
// (whole trees).
type Tracer struct {
	mu   sync.Mutex
	ring *Ring[*Span]
}

// DefaultTracerCapacity is the ring size of the default tracer.
const DefaultTracerCapacity = 256

var defaultTracer = NewTracer(DefaultTracerCapacity)

// DefaultTracer returns the process-wide tracer StartSpan records into.
func DefaultTracer() *Tracer { return defaultTracer }

// NewTracer returns a tracer with a ring of the given capacity.
func NewTracer(capacity int) *Tracer {
	return &Tracer{ring: NewRing[*Span](capacity)}
}

func (t *Tracer) add(sp *Span) {
	t.mu.Lock()
	t.ring.Push(sp)
	t.mu.Unlock()
}

// Recent returns up to n finished root spans, newest first. n <= 0
// returns everything retained.
func (t *Tracer) Recent(n int) []*Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ring.Recent(n)
}

// ByID returns the retained tree containing the span or trace ID, or
// nil if the ring has already dropped it. Exemplars hand out trace and
// span IDs; this is how /traces?id= resolves them back to a full tree.
func (t *Tracer) ByID(id uint64) *Span {
	for _, root := range t.Recent(0) {
		if root.TraceID == id {
			return root
		}
		found := false
		root.Walk(func(sp *Span) {
			if sp.ID == id {
				found = true
			}
		})
		if found {
			return root
		}
	}
	return nil
}

// Total returns how many root spans have finished on this tracer,
// including ones the ring has already dropped.
func (t *Tracer) Total() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ring.Total()
}
