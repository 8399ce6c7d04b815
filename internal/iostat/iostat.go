// Package iostat provides the access-cost accounting used throughout the
// benchmarks. The paper's Section 3 cost metric is the number of bitmap
// vectors that must be read to evaluate a selection (c_s for simple
// bitmap indexes, c_e for encoded ones); disk-oriented readings also care
// about bytes and pages. Stats is deliberately a plain value type so index
// operations can return it and harnesses can sum it.
package iostat

import "fmt"

// DefaultPageSize matches the paper's cost analysis (p = 4K).
const DefaultPageSize = 4096

// Stats accumulates the cost of evaluating one or more selections.
type Stats struct {
	VectorsRead int // bitmap vectors touched (the paper's c_s / c_e)
	WordsRead   int // 64-bit words scanned
	BoolOps     int // bulk Boolean vector operations
	RowsScanned int // rows materialized or scanned (scan/B-tree/join paths)
	NodesRead   int // tree nodes visited (B-tree paths)
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.VectorsRead += other.VectorsRead
	s.WordsRead += other.WordsRead
	s.BoolOps += other.BoolOps
	s.RowsScanned += other.RowsScanned
	s.NodesRead += other.NodesRead
}

// Sub returns the field-wise difference s - other. It is the natural way
// to turn two cumulative snapshots into the cost of the interval between
// them.
func (s Stats) Sub(other Stats) Stats {
	return Stats{
		VectorsRead: s.VectorsRead - other.VectorsRead,
		WordsRead:   s.WordsRead - other.WordsRead,
		BoolOps:     s.BoolOps - other.BoolOps,
		RowsScanned: s.RowsScanned - other.RowsScanned,
		NodesRead:   s.NodesRead - other.NodesRead,
	}
}

// IsZero reports whether no cost has been recorded — useful for plan
// renderers that omit empty per-node accounting.
func (s Stats) IsZero() bool { return s == Stats{} }

// BytesRead converts the word count into bytes.
func (s Stats) BytesRead() int { return s.WordsRead * 8 }

// PagesRead converts the byte volume into pageSize-sized page reads
// (rounded up per the usual disk model). A pageSize of 0 uses
// DefaultPageSize.
func (s Stats) PagesRead(pageSize int) int {
	if pageSize <= 0 {
		pageSize = DefaultPageSize
	}
	b := s.BytesRead()
	return (b + pageSize - 1) / pageSize
}

func (s Stats) String() string {
	return fmt.Sprintf("vectors=%d words=%d ops=%d rows=%d nodes=%d",
		s.VectorsRead, s.WordsRead, s.BoolOps, s.RowsScanned, s.NodesRead)
}

// Parse decodes the String format back into a Stats, so logged cost
// lines round-trip.
func Parse(s string) (Stats, error) {
	var st Stats
	n, err := fmt.Sscanf(s, "vectors=%d words=%d ops=%d rows=%d nodes=%d",
		&st.VectorsRead, &st.WordsRead, &st.BoolOps, &st.RowsScanned, &st.NodesRead)
	if err != nil {
		return Stats{}, fmt.Errorf("iostat: cannot parse %q: %w", s, err)
	}
	if n != 5 {
		return Stats{}, fmt.Errorf("iostat: parsed %d of 5 fields from %q", n, s)
	}
	return st, nil
}
