package query

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/bitvec"
	"repro/internal/core"
	"repro/internal/encoding"
	"repro/internal/pagestore"
	"repro/internal/simplebitmap"
	"repro/internal/table"
)

// adapterColumn is one test column: values with NULL marks (a NULL row's
// value is ignored) and the cell a value becomes.
type adapterColumn[V int64 | string] struct {
	vals []V
	null []bool
	cell func(V) table.Cell
}

// live returns a Synced index built from the column's first half with the
// rest appended through it, so its view carries a tail with NULLs.
func (c adapterColumn[V]) live(t *testing.T) *core.Synced[V] {
	t.Helper()
	half := len(c.vals) / 2
	s, err := core.BuildSynced(c.vals[:half], c.null[:half], nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := half; i < len(c.vals); i++ {
		if c.null[i] {
			err = s.AppendNull()
		} else {
			err = s.Append(c.vals[i])
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// build returns a plain encoded bitmap index over the column.
func (c adapterColumn[V]) build(t *testing.T) *core.Index[V] {
	t.Helper()
	ix, err := core.Build(c.vals, c.null, nil)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// simple returns a simple bitmap index over the column.
func (c adapterColumn[V]) simple(t *testing.T) *simplebitmap.Index[V] {
	t.Helper()
	ix, err := simplebitmap.Build(c.vals, c.null)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// orderedWithNulls builds an order-preserving index over the rows before
// the first NULL, which must hold the whole domain, and appends the rest,
// NULLs included.
func orderedWithNulls(t *testing.T, c adapterColumn[int64]) *core.OrderedIndex[int64] {
	t.Helper()
	first := 0
	for !c.null[first] {
		first++
	}
	ox, err := core.BuildOrdered(c.vals[:first], nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	ix := ox.Index()
	for i := first; i < len(c.vals); i++ {
		if c.null[i] {
			err = ix.AppendNull()
		} else {
			err = ix.Append(c.vals[i])
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return ox
}

// TestAdapterInstantiations runs every adapter type alias and OrderedEBI
// over an int and a string column with NULLs. Each leaf, through the
// ColumnIndex methods and through Leaf, must return the scan's rows;
// string ranges must be refused with ErrUnsupported. An encoded-bitmap
// adapter's PredictLeaf must state the Stats it reported, stamped with
// its view's basis; paged and simple adapters have no analytic model.
func TestAdapterInstantiations(t *testing.T) {
	ints := adapterColumn[int64]{
		vals: []int64{3, 1, 4, 5, 9, 2, 6, 7, 0, 1, 5, 0, 3, 5},
		null: []bool{false, false, false, false, false, false, false, false, true, false, false, true, false, false},
		cell: table.IntCell,
	}
	strs := adapterColumn[string]{
		vals: []string{"c", "a", "d", "", "a", "e", "i", "b", "f", "", "e", "c", "g", "a"},
		null: []bool{false, false, false, true, false, false, false, false, false, true, false, false, false, false},
		cell: table.StrCell,
	}
	tab := table.MustNew("t", table.NewColumn("i", table.Int64), table.NewColumn("s", table.String))
	for r := range ints.vals {
		row := []table.Cell{ints.cell(ints.vals[r]), strs.cell(strs.vals[r])}
		if ints.null[r] {
			row[0] = table.NullCell()
		}
		if strs.null[r] {
			row[1] = table.NullCell()
		}
		if err := tab.AppendRow(row...); err != nil {
			t.Fatal(err)
		}
	}
	scan := NewExecutor(tab)

	intIx, strIx := ints.build(t), strs.build(t)
	intLive, strLive := ints.live(t), strs.live(t)
	ordered := orderedWithNulls(t, ints)
	cases := []struct {
		name string
		col  string
		ix   ColumnIndex
		gen  func() uint64 // the basis stamp of the index's view; nil without a model
	}{
		{"EBIInt", "i", EBIInt{Ix: intIx}, func() uint64 { return intIx.View().PredictGen() }},
		{"EBIStr", "s", EBIStr{Ix: strIx}, func() uint64 { return strIx.View().PredictGen() }},
		{"SyncedEBIInt", "i", SyncedEBIInt{Ix: intLive}, func() uint64 { return intLive.View().PredictGen() }},
		{"SyncedEBIStr", "s", SyncedEBIStr{Ix: strLive}, func() uint64 { return strLive.View().PredictGen() }},
		{"OrderedEBI", "i", OrderedEBI{Ix: ordered}, func() uint64 { return ordered.Index().View().PredictGen() }},
		{"PagedEBIInt", "i", PagedEBIInt{Ix: pagestore.NewPagedIndex(ints.build(t), 4, 64)}, nil},
		{"PagedEBIStr", "s", PagedEBIStr{Ix: pagestore.NewPagedIndex(strs.build(t), 4, 64)}, nil},
		{"SimpleInt", "i", SimpleInt{Ix: ints.simple(t)}, nil},
		{"SimpleStr", "s", SimpleStr{Ix: strs.simple(t)}, nil},
	}
	leaves := map[string][]Predicate{
		"i": {
			Eq{Col: "i", Val: table.IntCell(5)},
			Eq{Col: "i", Val: table.IntCell(8)},
			Eq{Col: "i", Val: table.NullCell()},
			In{Col: "i", Vals: []table.Cell{table.IntCell(1), table.NullCell(), table.IntCell(42), table.IntCell(9)}},
			Range{Col: "i", Lo: 2, Hi: 5},
			Range{Col: "i", Lo: -10, Hi: 100},
			Range{Col: "i", Lo: 10, Hi: 20},
		},
		"s": {
			Eq{Col: "s", Val: table.StrCell("e")},
			Eq{Col: "s", Val: table.StrCell("zz")},
			Eq{Col: "s", Val: table.NullCell()},
			In{Col: "s", Vals: []table.Cell{table.StrCell("a"), table.NullCell(), table.StrCell("zz"), table.StrCell("i")}},
			Range{Col: "s", Lo: 0, Hi: 5},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			pix, modeled := c.ix.(PredictLeafIndex)
			if modeled != (c.gen != nil) {
				t.Fatalf("implements PredictLeafIndex = %v, want %v", modeled, c.gen != nil)
			}
			for _, p := range leaves[c.col] {
				_, isRange := p.(Range)
				refused := isRange && c.col == "s"
				var want *bitvec.Vector
				if !refused {
					var err error
					if want, _, err = scan.Eval(p); err != nil {
						t.Fatal(err)
					}
				}
				rows, st, err := columnLeaf(c.ix, p)
				leafRows, leafSt, leafErr := evalLeaf(context.Background(), c.ix, p, 1)
				switch {
				case refused:
					if err != ErrUnsupported || leafErr != ErrUnsupported {
						t.Fatalf("%s: errors %v, %v; want ErrUnsupported", p, err, leafErr)
					}
				case err != nil || leafErr != nil:
					t.Fatalf("%s: errors %v, %v", p, err, leafErr)
				case !rows.Equal(want) || !leafRows.Equal(want):
					t.Fatalf("%s: rows %s and %s via Leaf, scan %s", p, rows, leafRows, want)
				case st != leafSt:
					t.Fatalf("%s: stats %+v, via Leaf %+v", p, st, leafSt)
				}
				if !modeled {
					continue
				}
				pst, gen, ok := pix.PredictLeaf(p)
				switch {
				case ok == refused:
					t.Fatalf("%s: PredictLeaf ok = %v", p, ok)
				case !ok:
				case pst != st:
					t.Fatalf("%s: predicted %+v, measured %+v", p, pst, st)
				case gen != c.gen():
					t.Fatalf("%s: stamp %d, view's %d", p, gen, c.gen())
				}
			}
		})
	}
}

// TestCompressedSimpleRangeMatchesScan checks the WAH simple adapter's
// Range against the scan over a [0, 40) domain: with an open upper bound
// (col >= lo), wider than the domain, and narrow, where its Stats stay
// those of probing each integer of the interval.
func TestCompressedSimpleRangeMatchesScan(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	col := make([]int64, 2000)
	tab := table.MustNew("t", table.NewColumn("v", table.Int64))
	for i := range col {
		col[i] = int64(r.Intn(40))
		if err := tab.AppendRow(table.IntCell(col[i])); err != nil {
			t.Fatal(err)
		}
	}
	scan := NewExecutor(tab)
	wah, err := simplebitmap.BuildCompressed(col, nil)
	if err != nil {
		t.Fatal(err)
	}
	a := CompressedSimpleInt{Ix: wah}
	for _, c := range []struct {
		lo, hi int64
		probe  []int64 // the interval's integers; nil for the wide cases
	}{
		{lo: 30, hi: math.MaxInt64},
		{lo: -1000, hi: 1000},
		{lo: 10, hi: 14, probe: []int64{10, 11, 12, 13, 14}},
	} {
		want, _, err := scan.Eval(Range{Col: "v", Lo: c.lo, Hi: c.hi})
		if err != nil {
			t.Fatal(err)
		}
		got, st, err := a.Range(c.lo, c.hi)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("Range[%d, %d] = %d rows, scan %d", c.lo, c.hi, got.Count(), want.Count())
		}
		if c.probe != nil {
			if _, probed := wah.In(c.probe); st != probed {
				t.Fatalf("Range[%d, %d] stats %+v, probing the interval %+v", c.lo, c.hi, st, probed)
			}
		}
	}
}

// TestPropEBIRangeLeafMatchesScan is core's TestPropOrderedRangeMatchesScan
// at the query level: random range leaves through EBIInt over a plain
// Build (value order) and over a first-appearance mapping (out of value
// order, so its ranges are IN lists), OrderedEBI, and SyncedEBIInt over an
// ordered index, run
// sequentially and segmented, between appends of existing values, new
// maxima (the order holds) and new minima (it breaks), NULLs and deletes.
// Every leaf must return the scan's rows and the Stats PredictLeaf states.
func TestPropEBIRangeLeafMatchesScan(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		maxV := 2 + r.Intn(40)
		col := make([]int64, 1+r.Intn(200))
		for i := range col {
			col[i] = int64(r.Intn(maxV))
		}
		null := make([]bool, len(col))
		plain, err := core.Build(col, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Codes follow first appearance after a leading 1, 0, so the
		// mapping is out of value order whatever the column holds.
		m := encoding.NewMapping[int64](encoding.BitsFor(maxV + 2))
		for _, v := range append([]int64{1, 0}, col...) {
			if !m.Contains(v) {
				m.MustAdd(v, uint32(m.Len()+1))
			}
		}
		unordered, err := core.Build(col, nil, &core.Options[int64]{Mapping: m})
		if err != nil {
			t.Fatal(err)
		}
		if slices.IsSorted(unordered.Values()) {
			t.Fatalf("seed %d: first-appearance codes %v ascend with the values", seed, unordered.Values())
		}
		ordered, err := core.BuildOrdered(col, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		liveBase, err := core.BuildOrdered(col, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		live := core.NewSynced(liveBase.Index())
		type writer interface {
			Append(v int64) error
			AppendNull() error
			Delete(row int) error
		}
		writers := []writer{plain, unordered, ordered.Index(), live}
		leaves := []struct {
			name string
			ix   interface {
				LeafIndex
				PredictLeafIndex
			}
		}{
			{"EBIInt", EBIInt{Ix: plain}},
			{"EBIInt/first-appearance", EBIInt{Ix: unordered}},
			{"OrderedEBI", OrderedEBI{Ix: ordered}},
			{"SyncedEBIInt", SyncedEBIInt{Ix: live}},
		}
		deleted := make([]bool, len(col))
		lo, hi := int64(-1), int64(maxV)
		for op := 0; op < 8; op++ {
			for q := 0; q < 4; q++ {
				p := Range{Col: "v", Lo: lo - 2 + r.Int63n(hi-lo+4), Hi: lo - 2 + r.Int63n(hi-lo+4)}
				for _, l := range leaves {
					want, _, _ := l.ix.PredictLeaf(p)
					rows, st, err := l.ix.Leaf(context.Background(), p, 1+r.Intn(2))
					if err != nil {
						t.Fatal(err)
					}
					for i, v := range col {
						if rows.Get(i) != (!null[i] && !deleted[i] && v >= p.Lo && v <= p.Hi) {
							t.Fatalf("seed %d op %d %s: [%d, %d] row %d = %v", seed, op, l.name, p.Lo, p.Hi, i, rows.Get(i))
						}
					}
					if st != want {
						t.Fatalf("seed %d op %d %s: [%d, %d] stats %+v, predicted %+v", seed, op, l.name, p.Lo, p.Hi, st, want)
					}
				}
			}
			v, isNull := int64(r.Intn(maxV)), false
			switch r.Intn(5) {
			case 0:
				hi++
				v = hi
			case 1:
				v = lo
				lo--
			case 2:
				isNull = true
			case 3:
				row := r.Intn(len(col))
				for _, w := range writers {
					if err := w.Delete(row); err != nil {
						t.Fatal(err)
					}
				}
				deleted[row] = true
				continue
			}
			for _, w := range writers {
				if isNull {
					err = w.AppendNull()
				} else {
					err = w.Append(v)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			col, null, deleted = append(col, v), append(null, isNull), append(deleted, false)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
