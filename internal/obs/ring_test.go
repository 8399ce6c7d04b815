package obs

import (
	"slices"
	"sync/atomic"
	"testing"
	"time"
)

func TestRingPushRecentTotalReset(t *testing.T) {
	r := NewRing[int](3)
	if got := r.Recent(0); got == nil || len(got) != 0 {
		t.Fatalf("empty ring Recent = %#v, want a non-nil empty slice", got)
	}
	for i := 1; i <= 3; i++ {
		if _, overwrote := r.Push(i); overwrote {
			t.Fatalf("Push(%d) overwrote on a ring that is not full", i)
		}
	}
	// Wrap-around: each further push returns the oldest value it
	// overwrote.
	for i := 4; i <= 7; i++ {
		if old, overwrote := r.Push(i); !overwrote || old != i-3 {
			t.Fatalf("Push(%d) = (%d, %v), want (%d, true)", i, old, overwrote, i-3)
		}
	}
	for _, c := range []struct {
		n    int
		want []int
	}{
		{0, []int{7, 6, 5}},
		{-1, []int{7, 6, 5}},
		{2, []int{7, 6}},
		{1, []int{7}},
		{9, []int{7, 6, 5}},
	} {
		if got := r.Recent(c.n); !slices.Equal(got, c.want) {
			t.Fatalf("Recent(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	if r.Len() != 3 || r.Total() != 7 {
		t.Fatalf("Len, Total = %d, %d after dropping four, want 3, 7", r.Len(), r.Total())
	}
	r.Reset()
	if r.Len() != 0 || r.Total() != 0 || len(r.Recent(0)) != 0 {
		t.Fatalf("after Reset: Len %d, Total %d, Recent %v", r.Len(), r.Total(), r.Recent(0))
	}
	if _, overwrote := r.Push(8); overwrote || !slices.Equal(r.Recent(0), []int{8}) {
		t.Fatalf("Push after Reset: overwrote %v, Recent %v", overwrote, r.Recent(0))
	}
}

func TestLoopStartStop(t *testing.T) {
	var l Loop
	if l.Stop() {
		t.Fatal("Stop on a stopped loop reported true")
	}
	entered, release := make(chan struct{}), make(chan struct{})
	var calls, returned atomic.Int32
	fn := func() {
		if calls.Add(1) == 1 {
			close(entered)
			<-release
		}
		returned.Add(1)
	}
	if !l.Start(time.Millisecond, fn) {
		t.Fatal("first Start reported false")
	}
	if l.Start(time.Millisecond, func() { t.Error("second Start's fn ran") }) {
		t.Fatal("second Start on a running loop reported true")
	}
	<-entered
	stopped := make(chan bool)
	go func() { stopped <- l.Stop() }()
	select {
	case <-stopped:
		t.Fatal("Stop returned while a call was in flight")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	if !<-stopped {
		t.Fatal("Stop on a running loop reported false")
	}
	n := returned.Load()
	if n == 0 {
		t.Fatal("Stop returned before the call in flight did")
	}
	time.Sleep(5 * time.Millisecond)
	if got := returned.Load(); got != n {
		t.Fatalf("fn ran after Stop: %d -> %d calls", n, got)
	}
	if l.Stop() {
		t.Fatal("second Stop reported true")
	}
}
