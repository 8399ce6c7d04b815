package advisor

import (
	"strings"
	"testing"
	"testing/quick"
)

func mustAdvise(t *testing.T, col ColumnProfile, w WorkloadProfile) Recommendation {
	t.Helper()
	rec, err := Advise(col, w, 4096, 512)
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

func TestAdviseValidation(t *testing.T) {
	cases := []struct {
		col ColumnProfile
		w   WorkloadProfile
	}{
		{ColumnProfile{Rows: 0, Cardinality: 1}, WorkloadProfile{}},
		{ColumnProfile{Rows: 10, Cardinality: 0}, WorkloadProfile{}},
		{ColumnProfile{Rows: 10, Cardinality: 20}, WorkloadProfile{}},
		{ColumnProfile{Rows: 10, Cardinality: 5}, WorkloadProfile{RangeFraction: 1.5}},
		{ColumnProfile{Rows: 10, Cardinality: 5}, WorkloadProfile{RangeFraction: -0.1}},
	}
	for i, c := range cases {
		if _, err := Advise(c.col, c.w, 0, 0); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

// Moderate-cardinality point-heavy workload: c_s = 1 per point query
// beats c_e = k, and the column is small enough that space does not
// flip the choice — the regime Section 3 concedes to simple bitmaps.
func TestAdviseLowCardinalityPointHeavy(t *testing.T) {
	rec := mustAdvise(t,
		ColumnProfile{Name: "status", Rows: 200_000, Cardinality: 30},
		WorkloadProfile{RangeFraction: 0.1, AvgRangeWidth: 3},
	)
	if rec.Kind != SimpleBitmap {
		t.Fatalf("recommended %s, want simple-bitmap\n%+v", rec.Kind, rec.Candidates)
	}
	if !strings.Contains(rec.Reason, "point") {
		t.Fatalf("reason = %q", rec.Reason)
	}
}

// High-cardinality range-heavy warehouse column (the paper's core case):
// some encoded-bitmap variant must win.
func TestAdviseHighCardinalityRangeHeavy(t *testing.T) {
	rec := mustAdvise(t,
		ColumnProfile{Name: "product", Rows: 1_000_000, Cardinality: 12000, Ordered: false},
		WorkloadProfile{RangeFraction: 12.0 / 17, AvgRangeWidth: 500},
	)
	if rec.Kind != EncodedBitmap {
		t.Fatalf("recommended %s, want encoded-bitmap\n%+v", rec.Kind, rec.Candidates)
	}
}

// Ordered high-cardinality column with ad-hoc ranges: the ordered variant
// (interval covers) should beat the plain encoded index.
func TestAdviseOrderedColumn(t *testing.T) {
	rec := mustAdvise(t,
		ColumnProfile{Name: "price", Rows: 1_000_000, Cardinality: 50000, Ordered: true},
		WorkloadProfile{RangeFraction: 0.9, AvgRangeWidth: 5000},
	)
	if rec.Kind != OrderedEncodedBitmap && rec.Kind != BitSliced {
		t.Fatalf("recommended %s, want an ordered variant\n%+v", rec.Kind, rec.Candidates)
	}
}

// Predefined range selections on an ordered domain: range-encoded wins.
func TestAdvisePredefinedRanges(t *testing.T) {
	rec := mustAdvise(t,
		ColumnProfile{Name: "age_band", Rows: 1_000_000, Cardinality: 200, Ordered: true},
		WorkloadProfile{RangeFraction: 0.95, AvgRangeWidth: 40, PredefinedRanges: true},
	)
	if rec.Kind != RangeEncodedBitmap {
		t.Fatalf("recommended %s, want range-encoded\n%+v", rec.Kind, rec.Candidates)
	}
}

// Unordered column must never get an ordered recommendation.
func TestAdviseRespectsApplicability(t *testing.T) {
	rec := mustAdvise(t,
		ColumnProfile{Name: "uuid_bucket", Rows: 100000, Cardinality: 5000, Ordered: false},
		WorkloadProfile{RangeFraction: 0.8, AvgRangeWidth: 100, PredefinedRanges: true},
	)
	switch rec.Kind {
	case OrderedEncodedBitmap, BitSliced, RangeEncodedBitmap:
		t.Fatalf("recommended %s for an unordered column", rec.Kind)
	}
	// Inapplicable candidates carry a reason.
	found := false
	for _, c := range rec.Candidates {
		if !c.Applicable {
			found = true
			if c.WhyInapplicable == "" {
				t.Fatalf("inapplicable candidate %s without a reason", c.Kind)
			}
		}
	}
	if !found {
		t.Fatal("expected inapplicable candidates for an unordered column")
	}
}

// Update-heavy high-cardinality columns penalize simple bitmaps (the O(m)
// maintenance touch).
func TestAdviseUpdatesPenalizeSimple(t *testing.T) {
	col := ColumnProfile{Name: "sku", Rows: 500000, Cardinality: 4096}
	w := WorkloadProfile{RangeFraction: 0.3, AvgRangeWidth: 8, Updates: true}
	rec := mustAdvise(t, col, w)
	if rec.Kind == SimpleBitmap {
		t.Fatalf("update-heavy m=4096 column should not get simple bitmaps\n%+v", rec.Candidates)
	}
}

func TestKindStrings(t *testing.T) {
	kinds := []IndexKind{SimpleBitmap, EncodedBitmap, OrderedEncodedBitmap, BitSliced, RangeEncodedBitmap, BTree, IndexKind(99)}
	for _, k := range kinds {
		if k.String() == "" {
			t.Fatalf("empty String for %d", int(k))
		}
	}
}

// Property: the recommendation is always applicable and candidates are
// sorted with applicable ones first.
func TestPropAdviseSane(t *testing.T) {
	f := func(rows uint32, cardRaw uint16, rangeFrac uint8, width uint16, ordered, predefined, updates bool) bool {
		n := int(rows%1_000_000) + 100
		m := int(cardRaw)%n + 1
		col := ColumnProfile{Name: "c", Rows: n, Cardinality: m, Ordered: ordered}
		w := WorkloadProfile{
			RangeFraction:    float64(rangeFrac%101) / 100,
			AvgRangeWidth:    int(width),
			PredefinedRanges: predefined,
			Updates:          updates,
		}
		rec, err := Advise(col, w, 4096, 512)
		if err != nil {
			return false
		}
		// The chosen kind must be applicable.
		for _, c := range rec.Candidates {
			if c.Kind == rec.Kind {
				if !c.Applicable {
					return false
				}
				break
			}
		}
		// Costs are finite and non-negative for applicable candidates.
		for _, c := range rec.Candidates {
			if c.Applicable && (c.QueryCost < 0 || c.SpaceBytes < 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
