package pagestore

import (
	"testing"

	"repro/internal/bitvec"
)

func TestLayoutSegments(t *testing.T) {
	cases := []struct{ rows, want int }{
		{0, 0}, {1, 1}, {bitvec.SegmentBits, 1},
		{bitvec.SegmentBits + 1, 2}, {3 * bitvec.SegmentBits, 3},
	}
	for _, c := range cases {
		l := NewLayout(c.rows, 4096)
		if got := l.Segments(); got != c.want {
			t.Errorf("rows=%d: Segments() = %d, want %d", c.rows, got, c.want)
		}
	}
}
