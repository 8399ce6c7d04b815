package pagestore

import "repro/internal/bitvec"

// SegmentBytes is the payload one bitvec segment contributes to a stored
// vector: 64Ki bits = 8KiB.
const SegmentBytes = bitvec.SegmentBits / 8

// Segments returns how many execution segments cover one stored vector.
func (l Layout) Segments() int {
	if l.RowBytes == 0 {
		return 0
	}
	return (l.RowBytes + SegmentBytes - 1) / SegmentBytes
}
