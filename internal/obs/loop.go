package obs

import (
	"sync"
	"time"
)

// Loop calls a function periodically on a goroutine of its own. The zero
// value is a stopped loop. Safe for concurrent use.
type Loop struct {
	mu   sync.Mutex
	stop chan struct{}
	done chan struct{}
}

// Start calls fn every interval until Stop. It reports false, and does
// nothing, when the loop is already running.
func (l *Loop) Start(interval time.Duration, fn func()) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.stop != nil {
		return false
	}
	stop, done := make(chan struct{}), make(chan struct{})
	l.stop, l.done = stop, done
	go func() {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				fn()
			}
		}
	}()
	return true
}

// Stop halts the loop and waits for a call of fn in flight to return. It
// reports false when the loop was not running.
func (l *Loop) Stop() bool {
	l.mu.Lock()
	stop, done := l.stop, l.done
	l.stop, l.done = nil, nil
	l.mu.Unlock()
	if stop == nil {
		return false
	}
	close(stop)
	<-done
	return true
}
