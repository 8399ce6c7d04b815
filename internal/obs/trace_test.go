package obs

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"
)

// spin burns CPU long enough for the thread clock to register progress.
func spin() {
	x := 1
	for i := 0; i < 5_000_000; i++ {
		x = x*31 + i
	}
	runtime.KeepAlive(x)
}

func TestSpanHierarchyNestsUnderContext(t *testing.T) {
	withTelemetry(t)
	ctx, root := StartSpan(context.Background(), "root")
	_, child := StartSpan(ctx, "child")
	grand := child.StartChild("grandchild")

	if child.ParentID != root.ID || child.TraceID != root.TraceID {
		t.Fatalf("child not linked: parent=%d trace=%d, want %d/%d",
			child.ParentID, child.TraceID, root.ID, root.TraceID)
	}
	if grand.ParentID != child.ID || grand.TraceID != root.TraceID {
		t.Fatalf("grandchild not linked: parent=%d trace=%d", grand.ParentID, grand.TraceID)
	}

	grand.End()
	child.End()
	root.End()

	// Only the root enters the ring; the tree hangs off it.
	recent := DefaultTracer().Recent(1)
	if len(recent) != 1 || recent[0] != root {
		t.Fatal("root not the newest ring entry")
	}
	if len(root.Children) != 1 || root.Children[0] != child {
		t.Fatalf("root children = %v", root.Children)
	}
	if len(child.Children) != 1 || child.Children[0] != grand {
		t.Fatalf("child children = %v", child.Children)
	}

	var names []string
	root.Walk(func(sp *Span) { names = append(names, sp.Name) })
	want := []string{"root", "child", "grandchild"}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("walk order = %v, want %v", names, want)
		}
	}
}

func TestSpanResourceRollUp(t *testing.T) {
	withTelemetry(t)
	_, root := StartSpan(context.Background(), "root")
	child := root.StartChild("child")
	spin()
	_ = make([]byte, 1<<20)
	child.End()
	root.End()

	if runtime.GOOS == "linux" {
		if child.CPUNanos <= 0 {
			t.Fatalf("child CPU = %d, want > 0", child.CPUNanos)
		}
		// The root's window covers the child's, so the root can never
		// report less CPU than a same-goroutine child.
		if root.CPUNanos < child.CPUNanos {
			t.Fatalf("root CPU %d < child CPU %d", root.CPUNanos, child.CPUNanos)
		}
	}
	if child.AllocBytes < 1<<20 {
		t.Fatalf("child alloc = %d, want >= 1MiB", child.AllocBytes)
	}
	if root.AllocBytes < child.AllocBytes {
		t.Fatalf("root alloc %d < child alloc %d", root.AllocBytes, child.AllocBytes)
	}
}

func TestDetachedWorkerCPUAddsToParent(t *testing.T) {
	withTelemetry(t)
	_, root := StartSpan(context.Background(), "root")
	var wg sync.WaitGroup
	const workers = 3
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := root.StartDetached("worker")
			spin()
			w.End()
		}()
	}
	wg.Wait()
	root.End()

	if len(root.Children) != workers {
		t.Fatalf("root has %d children, want %d", len(root.Children), workers)
	}
	if runtime.GOOS == "linux" {
		var workerCPU int64
		for _, c := range root.Children {
			if c.CPUNanos <= 0 {
				t.Fatalf("worker CPU = %d, want > 0", c.CPUNanos)
			}
			workerCPU += c.CPUNanos
		}
		// Detached workers run on other threads, invisible to the root's
		// own thread clock — End folds their CPU into the root.
		if root.CPUNanos < workerCPU {
			t.Fatalf("root CPU %d < summed worker CPU %d", root.CPUNanos, workerCPU)
		}
	}
}

// TestSpanCPUFloorAfterMigration pins the migration floor: a parent
// whose goroutine resumed on another OS thread reads an unrelated thread
// clock at End, yet its CPU never falls below its same-thread children's.
func TestSpanCPUFloorAfterMigration(t *testing.T) {
	withTelemetry(t)
	_, root := StartSpan(context.Background(), "root")
	var kids int64
	for i := 0; i < 2; i++ {
		child := root.StartChild("child")
		spin()
		child.End()
		kids += child.CPUNanos
	}
	// Start the parent's window from a clock reading later than its
	// children's end, as the clock of the thread it resumes on may be.
	root.res.cpuNS = takeResSnap().cpuNS + int64(time.Hour)
	root.End()
	if root.CPUNanos < kids {
		t.Fatalf("root CPU %d < its children's %d", root.CPUNanos, kids)
	}
}

// TestNestedWorkerCPUReachesRoot checks that parallel workers detached
// under a same-thread child count in every ancestor, not only in the
// span they were detached from.
func TestNestedWorkerCPUReachesRoot(t *testing.T) {
	withTelemetry(t)
	_, root := StartSpan(context.Background(), "root")
	leaf := root.StartChild("leaf")
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := leaf.StartDetached("worker")
			spin()
			w.End()
		}()
	}
	wg.Wait()
	leaf.End()
	root.End()
	if root.CPUNanos < leaf.CPUNanos {
		t.Fatalf("root CPU %d < leaf CPU %d", root.CPUNanos, leaf.CPUNanos)
	}
}

func TestTracerByID(t *testing.T) {
	withTelemetry(t)
	_, root := StartSpan(context.Background(), "byid.root")
	child := root.StartChild("byid.child")
	child.End()
	root.End()

	tr := DefaultTracer()
	if got := tr.ByID(root.TraceID); got != root {
		t.Fatal("ByID(trace id) did not return the root")
	}
	// A child's span ID — the form exemplars hand out — resolves to the
	// containing tree, not the child alone.
	if got := tr.ByID(child.ID); got != root {
		t.Fatal("ByID(child span id) did not return the containing tree")
	}
	if got := tr.ByID(1 << 62); got != nil {
		t.Fatalf("ByID(unknown) = %v, want nil", got)
	}
}

func TestStartChildNilSafe(t *testing.T) {
	Disable()
	_, sp := StartSpan(context.Background(), "off")
	if sp != nil {
		t.Fatal("disabled StartSpan returned a span")
	}
	if c := sp.StartChild("c"); c != nil {
		t.Fatal("nil.StartChild returned a span")
	}
	if d := sp.StartDetached("d"); d != nil {
		t.Fatal("nil.StartDetached returned a span")
	}
	sp.Walk(func(*Span) { t.Fatal("nil.Walk visited a span") })
}
