package topology_test

import (
	"fmt"

	"repro/internal/topology"
)

// ExampleTorus shows the closed-form properties the paper quotes for the
// (16,16,16) BlueGene-class torus: diameter 24, mean internode distance 12.
func ExampleTorus() {
	t := topology.MustTorus(16, 16, 16)
	fmt.Println(t.Nodes(), t.Diameter(), t.AverageDistance())
	// Output: 4096 24 12
}

// ExampleTorus_Route demonstrates dimension-ordered routing with
// wraparound: (0,0) reaches (0,6) backwards through the seam in 2 hops.
func ExampleTorus_Route() {
	t := topology.MustTorus(8, 8)
	fmt.Println(t.Route(nil, 0, 6))
	// Output: [0 7 6]
}

// ExampleMesh_Distance is the Manhattan distance.
func ExampleMesh_Distance() {
	m := topology.MustMesh(4, 4)
	fmt.Println(m.Distance(0, 15)) // (0,0) -> (3,3)
	// Output: 6
}

// ExampleEnumerateLinks gives per-link dense indices for simulator state:
// node 0 of a 2x2 mesh has links 0 and 1, to its neighbours 2 and 1.
func ExampleEnumerateLinks() {
	ls := topology.EnumerateLinks(topology.MustMesh(2, 2))
	first, to := ls.Row(0)
	fmt.Println(ls.Len(), first, to, ls.Index(0, 1))
	// Output: 8 0 [2 1] 1
}
