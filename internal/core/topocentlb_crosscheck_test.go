package core

import (
	"testing"

	"repro/internal/taskgraph"
	"repro/internal/topology"
)

// referenceTopoCentLB is the obviously-correct restatement of §4.5: no
// incremental keys — every cycle rescans all unplaced tasks for
// the one with maximum communication to placed tasks (ties to the lowest
// id) and all free processors for the cheapest first-order cost.
func referenceTopoCentLB(g *taskgraph.Graph, t topology.Topology) Mapping {
	n := t.Nodes()
	m := make(Mapping, n)
	for i := range m {
		m[i] = -1
	}
	procFree := make([]bool, n)
	for p := range procFree {
		procFree[p] = true
	}
	// First: most-communicating task on the most central processor.
	first := 0
	for v := 1; v < n; v++ {
		if g.WeightedDegree(v) > g.WeightedDegree(first) {
			first = v
		}
	}
	totalDist := make([]float64, n)
	topology.TotalDistances(t, totalDist)
	center := 0
	for p := 1; p < n; p++ {
		if totalDist[p] < totalDist[center] {
			center = p
		}
	}
	m[first] = center
	procFree[center] = false
	for placed := 1; placed < n; placed++ {
		tk, bestKey := -1, -1.0
		for v := 0; v < n; v++ {
			if m[v] >= 0 {
				continue
			}
			key := 0.0
			adj, w := g.Neighbors(v)
			for i, u := range adj {
				if m[u] >= 0 {
					key += w[i]
				}
			}
			if key > bestKey {
				tk, bestKey = v, key
			}
		}
		adj, w := g.Neighbors(tk)
		pk, minCost := -1, 0.0
		for p := 0; p < n; p++ {
			if !procFree[p] {
				continue
			}
			cost := 0.0
			for i, u := range adj {
				if pu := m[u]; pu >= 0 {
					cost += w[i] * float64(t.Distance(p, pu))
				}
			}
			if pk < 0 || cost < minCost {
				pk, minCost = p, cost
			}
		}
		m[tk] = pk
		procFree[pk] = false
	}
	return m
}

// TestTopoCentLBMatchesBruteForceReference: the incremental-key
// implementation must pick the same task/processor sequence as the rescan-everything
// reference on many random integer-weighted instances.
func TestTopoCentLBMatchesBruteForceReference(t *testing.T) {
	shapes := []topology.Topology{
		topology.MustTorus(3, 3), topology.MustMesh(4, 3), topology.MustTorus(2, 2, 3),
	}
	for _, to := range shapes {
		n := to.Nodes()
		for seed := int64(0); seed < 10; seed++ {
			g := integerize(taskgraph.Random(n, n*2, 1, 16, seed))
			fast, err := TopoCentLB{}.Map(g, to)
			if err != nil {
				t.Fatal(err)
			}
			ref := referenceTopoCentLB(g, to)
			hbFast, hbRef := HopBytes(g, to, fast), HopBytes(g, to, ref)
			if diff := hbFast - hbRef; diff > 1e-6 || diff < -1e-6 {
				t.Errorf("%s seed %d: HB %v != reference HB %v", to.Name(), seed, hbFast, hbRef)
			}
			for v := range fast {
				if fast[v] != ref[v] {
					t.Errorf("%s seed %d: placement diverges at task %d (%d vs %d)",
						to.Name(), seed, v, fast[v], ref[v])
					break
				}
			}
		}
	}
}

// FuzzTopoCentLBMatchesReference turns bytes into a small graph on a
// machine of 2–64 nodes — a labelled even torus, mesh or hypercube, or an
// unlabelled odd torus or explicit graph — and holds TopoCentLB to the
// rescanning reference, task by task. Weights come from {1, 2, 3}, so
// tasks often tie on their key and the lowest-id rule decides.
func FuzzTopoCentLBMatchesReference(f *testing.F) {
	f.Add([]byte{0, 3, 3, 0, 1, 9, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{1, 7, 7, 0, 0, 0})
	f.Add([]byte{2, 5, 200, 100, 50, 25, 12, 6, 3, 1, 2})
	f.Add([]byte{3, 2, 7, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
	f.Add([]byte{4, 1, 3, 2, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		var topo topology.Topology
		labelled := true
		switch next() % 5 {
		case 0:
			topo = topology.MustTorus(2*(1+next()%4), 2*(1+next()%4))
		case 1:
			topo = topology.MustMesh(1+next()%8, 2+next()%7)
		case 2:
			topo = topology.MustHypercube(1 + next()%6)
		case 3:
			topo, labelled = topology.MustTorus(3+2*(next()%3), 1+next()%8), false
		default:
			topo, labelled = topology.FromTopology(topology.MustMesh(1+next()%8, 2+next()%7)), false
		}
		if d := topology.NewDists(topo); (d.Labels() != nil) != labelled {
			t.Fatalf("%s: labelled %v, want %v", topo.Name(), !labelled, labelled)
		}
		n := topo.Nodes()
		b := taskgraph.NewBuilder(n)
		for len(data) >= 3 {
			a, c, x := next()%n, next()%n, next()
			b.AddEdge(a, c, float64(1+x%3))
		}
		g := b.Build("fuzz")
		got, err := TopoCentLB{}.Map(g, topo)
		if err != nil {
			t.Fatal(err)
		}
		want := referenceTopoCentLB(g, topo)
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("%s: task %d on %d, reference %d", topo.Name(), v, got[v], want[v])
			}
		}
	})
}
