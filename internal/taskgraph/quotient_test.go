package taskgraph_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/partition"
	"repro/internal/taskgraph"
)

// TestQuotientMatchesBuilder holds partition.Quotient to its former
// formulation: one AddEdge per cut fine edge, in fine-edge order, into the
// map reference. It lives beside the reference, which is test code of
// this package. The graphs carry fractional bytes, so a pair summed in
// any other order would show in the bits.
func TestQuotientMatchesBuilder(t *testing.T) {
	graphs := []*taskgraph.Graph{
		taskgraph.RandomGeometricDeg(2000, 8, 1000, 3),
		taskgraph.RandomGeometricDeg(300, 20, 1000, 5),
		taskgraph.Random(500, 3000, 0.5, 9.5, 7),
		taskgraph.Random(64, 2000, 0.1, 0.3, 11),
	}
	for _, g := range graphs {
		for _, k := range []int{1, 2, 7, 64} {
			rng := rand.New(rand.NewSource(int64(k)))
			r := &partition.Result{Assign: make([]int, g.NumVertices()), K: k}
			for v := range r.Assign {
				r.Assign[v] = v % k // every group non-empty
			}
			rng.Shuffle(len(r.Assign), func(i, j int) { r.Assign[i], r.Assign[j] = r.Assign[j], r.Assign[i] })
			got, err := partition.Quotient(g, r)
			if err != nil {
				t.Fatal(err)
			}
			if err := taskgraph.SameGraph(got, mapQuotient(g, r)); err != nil {
				t.Errorf("%s into %d: %v", g.Name(), k, err)
			}
		}
	}
}

// mapQuotient is Quotient as it was: group loads, then every cut fine edge
// added to the map reference in fine-edge order.
func mapQuotient(g *taskgraph.Graph, r *partition.Result) *taskgraph.Graph {
	b := taskgraph.NewMapBuilder(r.K)
	for p, l := range r.GroupLoads(g) {
		b.SetVertexWeight(p, l)
	}
	for v := 0; v < g.NumVertices(); v++ {
		adj, w := g.Neighbors(v)
		for i, u := range adj {
			if int32(v) < u && r.Assign[v] != r.Assign[u] {
				b.AddEdge(r.Assign[v], r.Assign[int(u)], w[i])
			}
		}
	}
	return b.Build(fmt.Sprintf("quotient[%s,k=%d]", g.Name(), r.K))
}
