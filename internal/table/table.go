// Package table provides the columnar star-schema substrate the examples
// and benchmarks run on: typed columns (int64 and string) with NULL
// tracking, fact and dimension tables, and foreign-key joins by row id.
// Warehouse data in the paper is modeled as a star schema (Section 2.3);
// this package is that model, kept deliberately minimal — the indexes,
// not the table engine, are the subject of the reproduction.
package table

import (
	"fmt"
	"sort"

	"repro/internal/bitvec"
)

// Kind is a column's data type.
type Kind int

const (
	Int64 Kind = iota
	String
)

func (k Kind) String() string {
	switch k {
	case Int64:
		return "int64"
	case String:
		return "string"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Column is a typed, NULL-aware column stored contiguously.
type Column struct {
	Name string
	Kind Kind

	ints  []int64
	strs  []string
	nulls *bitvec.Vector
}

// NewColumn returns an empty column.
func NewColumn(name string, kind Kind) *Column {
	return &Column{Name: name, Kind: kind, nulls: bitvec.New(0)}
}

// Len returns the number of rows.
func (c *Column) Len() int { return c.nulls.Len() }

// AppendInt adds an int64 row; the column must be Int64.
func (c *Column) AppendInt(v int64) error {
	if c.Kind != Int64 {
		return fmt.Errorf("table: column %s is %s, not int64", c.Name, c.Kind)
	}
	c.ints = append(c.ints, v)
	c.nulls.Append(false)
	return nil
}

// AppendString adds a string row; the column must be String.
func (c *Column) AppendString(v string) error {
	if c.Kind != String {
		return fmt.Errorf("table: column %s is %s, not string", c.Name, c.Kind)
	}
	c.strs = append(c.strs, v)
	c.nulls.Append(false)
	return nil
}

// AppendNull adds a NULL row of the column's kind.
func (c *Column) AppendNull() {
	switch c.Kind {
	case Int64:
		c.ints = append(c.ints, 0)
	case String:
		c.strs = append(c.strs, "")
	}
	c.nulls.Append(true)
}

// IsNull reports whether the row is NULL.
func (c *Column) IsNull(row int) bool { return c.nulls.Get(row) }

// Int returns the int64 value of a row (0 for NULLs).
func (c *Column) Int(row int) int64 { return c.ints[row] }

// Str returns the string value of a row ("" for NULLs).
func (c *Column) Str(row int) string { return c.strs[row] }

// Ints exposes the raw int64 payload (aliased, do not mutate); used by
// index builders.
func (c *Column) Ints() []int64 { return c.ints }

// Strs exposes the raw string payload (aliased, do not mutate).
func (c *Column) Strs() []string { return c.strs }

// NullMask returns a bool slice view of NULL positions, the shape the
// index Build functions accept. Returns nil when the column has no NULLs.
func (c *Column) NullMask() []bool {
	if !c.nulls.Any() {
		return nil
	}
	out := make([]bool, c.Len())
	c.nulls.ForEach(func(i int) bool {
		out[i] = true
		return true
	})
	return out
}

// Table is a named collection of equal-length columns.
type Table struct {
	Name    string
	columns []*Column
	byName  map[string]*Column
	n       int
}

// New creates a table with the given columns (all must be empty).
func New(name string, cols ...*Column) (*Table, error) {
	t := &Table{Name: name, byName: make(map[string]*Column, len(cols))}
	for _, c := range cols {
		if c.Len() != 0 {
			return nil, fmt.Errorf("table: column %s is not empty", c.Name)
		}
		if _, dup := t.byName[c.Name]; dup {
			return nil, fmt.Errorf("table: duplicate column %s", c.Name)
		}
		t.columns = append(t.columns, c)
		t.byName[c.Name] = c
	}
	return t, nil
}

// MustNew is New that panics on error, for static schemas.
func MustNew(name string, cols ...*Column) *Table {
	t, err := New(name, cols...)
	if err != nil {
		panic(err)
	}
	return t
}

// Len returns the row count.
func (t *Table) Len() int { return t.n }

// Column returns the named column, or nil.
func (t *Table) Column(name string) *Column { return t.byName[name] }

// Columns returns the columns in declaration order.
func (t *Table) Columns() []*Column { return append([]*Column(nil), t.columns...) }

// Cell is one typed value for row appends. The zero Cell is NULL.
type Cell struct {
	Null bool
	I    int64
	S    string
}

// IntCell returns a non-NULL int cell.
func IntCell(v int64) Cell { return Cell{I: v} }

// StrCell returns a non-NULL string cell.
func StrCell(v string) Cell { return Cell{S: v} }

// NullCell returns a NULL cell.
func NullCell() Cell { return Cell{Null: true} }

// AppendRow adds one row; cells must match the column count and kinds.
func (t *Table) AppendRow(cells ...Cell) error {
	if len(cells) != len(t.columns) {
		return fmt.Errorf("table %s: got %d cells, want %d", t.Name, len(cells), len(t.columns))
	}
	for i, cell := range cells {
		col := t.columns[i]
		switch {
		case cell.Null:
			col.AppendNull()
		case col.Kind == Int64:
			if err := col.AppendInt(cell.I); err != nil {
				return err
			}
		default:
			if err := col.AppendString(cell.S); err != nil {
				return err
			}
		}
	}
	t.n++
	return nil
}

// Star is a star schema: one fact table plus dimensions joined via
// foreign-key columns holding dimension row ids.
type Star struct {
	Fact *Table
	dims map[string]*DimRef
}

// DimRef binds a fact foreign-key column to a dimension table.
type DimRef struct {
	FactColumn string // int64 column in the fact table holding dim row ids
	Dim        *Table
}

// NewStar builds a star schema.
func NewStar(fact *Table) *Star {
	return &Star{Fact: fact, dims: make(map[string]*DimRef)}
}

// AddDimension registers a dimension reachable through the given fact
// column.
func (s *Star) AddDimension(factColumn string, dim *Table) error {
	col := s.Fact.Column(factColumn)
	if col == nil {
		return fmt.Errorf("table: fact has no column %s", factColumn)
	}
	if col.Kind != Int64 {
		return fmt.Errorf("table: foreign key %s must be int64", factColumn)
	}
	s.dims[factColumn] = &DimRef{FactColumn: factColumn, Dim: dim}
	return nil
}

// DimColumns returns the fact foreign-key columns with bound dimensions,
// sorted for determinism.
func (s *Star) DimColumns() []string {
	out := make([]string, 0, len(s.dims))
	for fk := range s.dims {
		out = append(out, fk)
	}
	sort.Strings(out)
	return out
}

// Dimension returns the dimension bound to a fact column, or nil.
func (s *Star) Dimension(factColumn string) *Table {
	if d, ok := s.dims[factColumn]; ok {
		return d.Dim
	}
	return nil
}

// DimAttr materializes a dimension attribute along the fact table: for
// each fact row, the value of the dimension column the foreign key points
// at. This is the denormalized view hierarchy encoding indexes
// (Section 2.3: selections on dimension elements select fact rows).
func (s *Star) DimAttr(factColumn, dimColumn string) (*Column, error) {
	ref, ok := s.dims[factColumn]
	if !ok {
		return nil, fmt.Errorf("table: no dimension on %s", factColumn)
	}
	fk := s.Fact.Column(factColumn)
	dcol := ref.Dim.Column(dimColumn)
	if dcol == nil {
		return nil, fmt.Errorf("table: dimension %s has no column %s", ref.Dim.Name, dimColumn)
	}
	out := NewColumn(ref.Dim.Name+"."+dimColumn, dcol.Kind)
	for row := 0; row < s.Fact.Len(); row++ {
		if fk.IsNull(row) {
			out.AppendNull()
			continue
		}
		id := int(fk.Int(row))
		if id < 0 || id >= ref.Dim.Len() {
			return nil, fmt.Errorf("table: fact row %d has dangling key %d into %s", row, id, ref.Dim.Name)
		}
		if dcol.IsNull(id) {
			out.AppendNull()
			continue
		}
		switch dcol.Kind {
		case Int64:
			if err := out.AppendInt(dcol.Int(id)); err != nil {
				return nil, err
			}
		default:
			if err := out.AppendString(dcol.Str(id)); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}
