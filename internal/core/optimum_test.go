package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/hiertopo"
	"repro/internal/partition"
	"repro/internal/taskgraph"
	"repro/internal/topology"
)

// optimumGraphs are the eight-task graphs of the exact-optimum oracle: a
// ring, a 2×4 nine-point stencil and three random graphs, every weight an
// integer so that every hop-bytes sum and swap delta is exact.
func optimumGraphs() []*taskgraph.Graph {
	gs := []*taskgraph.Graph{taskgraph.Ring(8, 1), taskgraph.Stencil9(2, 4, 4)}
	for seed := int64(1); seed <= 3; seed++ {
		gs = append(gs, integerWeights(taskgraph.Random(8, 16, 1, 9, seed)))
	}
	return gs
}

// integerWeights returns g with every edge weight rounded down.
func integerWeights(g *taskgraph.Graph) *taskgraph.Graph {
	b := taskgraph.NewBuilder(g.NumVertices())
	for v := 0; v < g.NumVertices(); v++ {
		adj, w := g.Neighbors(v)
		for i, u := range adj {
			if int32(v) < u {
				b.AddEdge(v, int(u), math.Floor(w[i]))
			}
		}
	}
	return b.Build(g.Name() + "/floor")
}

// bruteOptimum returns a bijection of g's tasks onto t's processors with
// the least hop-bytes, searching all p! of them, and that hop-bytes.
func bruteOptimum(g *taskgraph.Graph, t topology.Topology) (Mapping, float64) {
	p := t.Nodes()
	dist := make([][]float64, p)
	for a := range dist {
		dist[a] = make([]float64, p)
		for b := range dist[a] {
			dist[a][b] = float64(t.Distance(a, b))
		}
	}
	type edge struct {
		a, b int
		w    float64
	}
	var edges []edge
	for v := 0; v < g.NumVertices(); v++ {
		adj, w := g.Neighbors(v)
		for i, u := range adj {
			if int32(v) < u {
				edges = append(edges, edge{v, int(u), w[i]})
			}
		}
	}
	m := make(Mapping, p)
	for i := range m {
		m[i] = i
	}
	best, bestCost := slices.Clone(m), math.Inf(1)
	var rec func(k int)
	rec = func(k int) {
		if k == p {
			cost := 0.0
			for _, e := range edges {
				cost += e.w * dist[m[e.a]][m[e.b]]
			}
			if cost < bestCost {
				copy(best, m)
				bestCost = cost
			}
			return
		}
		for i := k; i < p; i++ {
			m[k], m[i] = m[i], m[k]
			rec(k + 1)
			m[k], m[i] = m[i], m[k]
		}
	}
	rec(0)
	return best, bestCost
}

// TestRefinersKeepTheOptimum: a refiner accepts a swap only if it lowers
// hop-bytes, so started at an exact optimum it must swap nothing. The
// optimum is found by brute force over all 8! bijections, for five
// integer-weighted graphs on three flat machines (Refine, the V-cycle's
// finest-level pass and its label-cut pass, all three machines labelled)
// and on an eight-processor hierarchy (Refine as HierMap runs it). All
// three refiners score with SwapDelta: a sign or epsilon slip in it makes
// them move off the optimum, and this test fails.
func TestRefinersKeepTheOptimum(t *testing.T) {
	for _, topo := range []topology.Topology{
		topology.MustTorus(2, 4), topology.MustMesh(2, 2, 2), topology.MustHypercube(3),
	} {
		for _, g := range optimumGraphs() {
			t.Run(fmt.Sprintf("%s/%s", topo.Name(), g.Name()), func(t *testing.T) {
				opt, cost := bruteOptimum(g, topo)
				if hb := HopBytes(g, topo, opt); hb != cost {
					t.Fatalf("HopBytes of the optimum is %v, brute force summed %v", hb, cost)
				}

				m := slices.Clone(opt)
				if swaps := Refine(g, topo, m, 8); swaps != 0 || !slices.Equal(m, opt) {
					t.Errorf("Refine made %d swaps from the optimum (hop-bytes %v -> %v)", swaps, cost, HopBytes(g, topo, m))
				}

				r := newMLRefiner(topo, localityOrder(topo), 8, 8)
				start := make([]int32, 8)
				for v, q := range opt {
					start[v] = r.procIndex[q]
				}
				r.setLevel(partition.FromTaskGraph(g), start)
				if !slices.Equal(r.repc, opt) {
					t.Fatalf("the V-cycle's layout %v is not the optimum %v", r.repc, opt)
				}
				r.scanAll = true
				r.propose()
				if moves := r.commit(); moves != 0 || !slices.Equal(r.repc, opt) {
					t.Errorf("the V-cycle's refine made %d swaps from the optimum (hop-bytes %v -> %v)",
						moves, cost, HopBytes(g, topo, r.repc))
				}
				if swaps := r.labelCut(); swaps != 0 || !slices.Equal(r.repc, opt) {
					t.Errorf("the label-cut pass made %d swaps from the optimum (hop-bytes %v -> %v)",
						swaps, cost, HopBytes(g, topo, r.repc))
				}
			})
		}
	}
	// Two pods of a 2×2 mesh each: eight processors, so cross-leaf swaps.
	h, err := hiertopo.Parse("pod:2:mesh-2x2")
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range optimumGraphs() {
		t.Run(fmt.Sprintf("%s/%s", h.Name(), g.Name()), func(t *testing.T) {
			opt, cost := bruteOptimum(g, h)
			m := slices.Clone(opt)
			if swaps := Refine(g, h, m, hierRefinePasses); swaps != 0 || !slices.Equal(m, opt) {
				t.Errorf("Refine made %d swaps from the hierarchy's optimum (hop-bytes %v -> %v)", swaps, cost, HopBytes(g, h, m))
			}
		})
	}
}
