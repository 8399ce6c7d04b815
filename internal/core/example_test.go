package core_test

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/encoding"
)

// Example reproduces the paper's running example: indexing a 3-value
// domain with 2 bitmap vectors and answering a disjunctive selection by
// reading a single vector.
func Example() {
	column := []string{"a", "b", "c", "b", "a", "c"}
	m := encoding.NewMapping[string](2)
	m.MustAdd("a", 0b00)
	m.MustAdd("b", 0b01)
	m.MustAdd("c", 0b10)
	ix, err := core.Build(column, nil, &core.Options[string]{
		Mapping: m, DisableVoidReserve: true, DisableDontCares: true,
	})
	if err != nil {
		panic(err)
	}

	rows, st := ix.In([]string{"a", "b"})
	fmt.Printf("expression: %s\n", ix.DescribeSelection([]string{"a", "b"}))
	fmt.Printf("rows: %v, vectors read: %d\n", rows.Indices(), st.VectorsRead)
	// Output:
	// expression: B1'
	// rows: [0 1 3 4], vectors read: 1
}

// ExampleIndex_In answers an IN selection by reading one vector. The
// reduced retrieval function is cached per code set, so repeating the
// selection reuses it.
func ExampleIndex_In() {
	column := []int{10, 20, 30, 40, 10, 20}
	m := encoding.NewMapping[int](3) // code 0 stays free for voids
	m.MustAdd(10, 2)
	m.MustAdd(20, 3)
	m.MustAdd(30, 4)
	m.MustAdd(40, 5)
	ix, err := core.Build(column, nil, &core.Options[int]{Mapping: m})
	if err != nil {
		panic(err)
	}
	rows, st := ix.In([]int{10, 20}) // codes {010,011} + don't-cares -> B1
	fmt.Printf("%d rows via %d vector(s)\n", rows.Count(), st.VectorsRead)
	// Output:
	// 4 rows via 1 vector(s)
}

// ExampleIndex_Delete shows Theorem 2.1: deleted tuples are voided to
// code 0 and silently drop out of every selection.
func ExampleIndex_Delete() {
	ix, err := core.Build([]string{"x", "y", "x"}, nil, nil)
	if err != nil {
		panic(err)
	}
	_ = ix.Delete(0)
	rows, _ := ix.Eq("x")
	fmt.Println(rows.Indices())
	// Output:
	// [2]
}

// ExampleNewGroupSet groups rows by two encoded attributes using
// concatenated codes as group keys.
func ExampleNewGroupSet() {
	region, _ := core.Build([]string{"n", "s", "n", "s"}, nil, nil)
	tier, _ := core.Build([]int{1, 1, 2, 1}, nil, nil)
	g, err := core.NewGroupSet(region, tier)
	if err != nil {
		panic(err)
	}
	all, _ := region.Existing()
	counts := g.GroupCounts(all)
	fmt.Printf("%d groups over %d vectors\n", len(counts), g.NumVectors())
	// Output:
	// 3 groups over 4 vectors
}
