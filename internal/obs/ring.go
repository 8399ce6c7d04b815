package obs

// Ring is a fixed-capacity buffer of the most recent values pushed into
// it. It has no lock of its own: its owner already holds one over it.
type Ring[T any] struct {
	buf   []T
	next  int    // slot the next Push writes
	n     int    // values retained, at most len(buf)
	total uint64 // values ever pushed, dropped ones included
}

// NewRing returns an empty ring holding at most capacity values (at
// least one).
func NewRing[T any](capacity int) *Ring[T] {
	return &Ring[T]{buf: make([]T, max(capacity, 1))}
}

// Push stores v as the newest value. On a full ring v overwrites the
// oldest value, which Push returns with true.
func (r *Ring[T]) Push(v T) (old T, overwrote bool) {
	if r.n == len(r.buf) {
		old, overwrote = r.buf[r.next], true
	} else {
		r.n++
	}
	r.buf[r.next] = v
	r.next = (r.next + 1) % len(r.buf)
	r.total++
	return old, overwrote
}

// Recent returns a copy of the newest n values, newest first; n <= 0 or
// n > Len returns all of them. The result is never nil.
func (r *Ring[T]) Recent(n int) []T {
	if n <= 0 || n > r.n {
		n = r.n
	}
	out := make([]T, n)
	for i := range out {
		out[i] = r.buf[(r.next-1-i+len(r.buf))%len(r.buf)]
	}
	return out
}

// Len returns how many values the ring retains.
func (r *Ring[T]) Len() int { return r.n }

// Total returns how many values were ever pushed, including the ones
// the ring has already dropped.
func (r *Ring[T]) Total() uint64 { return r.total }

// Reset drops every value and zeroes Total.
func (r *Ring[T]) Reset() {
	clear(r.buf)
	r.next, r.n, r.total = 0, 0, 0
}
