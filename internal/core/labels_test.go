package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/taskgraph"
	"repro/internal/topology"
)

// requireLabelsMatchMatrix fails unless TopoLB at every order, TopoCentLB
// and HopBytes give the same mapping bytes and hop-bytes bits on the
// labelled machine to, where they read its labels, as on its Graph, which
// has no labels and so reads the cached matrix. None of them reads the
// machine's neighbour order, so the two runs see the same machine. The
// V-cycle's subset view is held the same way: over to's labels, which it
// carries, against over to's matrix.
func requireLabelsMatchMatrix(t testing.TB, g *taskgraph.Graph, to topology.Topology) {
	t.Helper()
	graph := topology.FromTopology(to)
	if d := topology.NewDists(to); d.Labels() == nil || d.Matrix() != nil {
		t.Fatalf("%s: NewDists reads labels: %v, a matrix: %v", to.Name(), d.Labels() != nil, d.Matrix() != nil)
	}
	if d := topology.NewDists(graph); d.Matrix() == nil {
		t.Fatalf("%s: NewDists has no matrix", graph.Name())
	}
	// Every other processor, last first, views a subset in no order of its own.
	var reps []int32
	for q := to.Nodes() - 1; q >= 0; q -= 2 {
		reps = append(reps, int32(q))
	}
	viaLabels := newSubsetTopology(topology.NewDists(to), reps, fmt.Sprintf("labels(%s)", to.Name()))
	viaMatrix := newSubsetTopology(topology.MatrixDists(to), reps, fmt.Sprintf("matrix(%s)", to.Name()))
	if d := topology.ClosedDists(viaLabels); d.Labels() == nil {
		t.Fatalf("%s: the subset view over labels does not answer from them", to.Name())
	}
	if d := topology.ClosedDists(viaMatrix); d.Labels() != nil {
		t.Fatalf("%s: the subset view over the matrix carries labels", to.Name())
	}
	sub := ringGraph(len(reps), g)
	strategies := []Strategy{TopoLB{Order: OrderFirst}, TopoLB{Order: OrderSecond}, TopoLB{Order: OrderThird}, TopoCentLB{}}
	for _, pair := range []struct {
		g                  *taskgraph.Graph
		labels, matrixSide topology.Topology
	}{{g, to, graph}, {sub, viaLabels, viaMatrix}} {
		for _, s := range strategies {
			ml, err := s.Map(pair.g, pair.labels)
			if err != nil {
				t.Fatal(err)
			}
			mm, err := s.Map(pair.g, pair.matrixSide)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(ml, mm) {
				t.Fatalf("%s on %s: %v on labels, %v on the matrix", s.Name(), pair.labels.Name(), ml, mm)
			}
			hl, hm := HopBytes(pair.g, pair.labels, ml), HopBytes(pair.g, pair.matrixSide, ml)
			if math.Float64bits(hl) != math.Float64bits(hm) {
				t.Fatalf("%s on %s: hop-bytes %v on labels, %v on the matrix", s.Name(), pair.labels.Name(), hl, hm)
			}
		}
	}
}

// ringGraph is a graph on n tasks for a subset view: a ring weighted by
// g's edge weights in CSR order, so the view's mapping depends on them.
func ringGraph(n int, g *taskgraph.Graph) *taskgraph.Graph {
	b := taskgraph.NewBuilder(n)
	_, _, adjwgt := g.CSR()
	for v := 0; v < n && n > 1; v++ {
		w := 1.0
		if len(adjwgt) > 0 {
			w = adjwgt[v%len(adjwgt)]
		}
		b.AddEdge(v, (v+1)%n, w)
	}
	return b.Build(fmt.Sprintf("ring(%d)", n))
}

// TestLabelsMatchMatrix: on labelled meshes, even tori (extent-2
// dimensions among them) and hypercubes, the kernels that read labels
// inline map and measure exactly as they do on the matrix.
func TestLabelsMatchMatrix(t *testing.T) {
	machines := []topology.Topology{
		topology.MustMesh(4, 4), topology.MustMesh(3, 5), topology.MustMesh(2, 3, 2),
		topology.MustTorus(4, 4), topology.MustTorus(6, 2), topology.MustTorus(2, 2, 2), topology.MustTorus(8),
		topology.MustHypercube(3), topology.MustHypercube(5),
	}
	for i, to := range machines {
		rng := rand.New(rand.NewSource(int64(i)))
		n := to.Nodes()
		requireLabelsMatchMatrix(t, intWeightGraph(n, 2*n, rng), to)
	}
}

// FuzzLabelsMatchMatrix: the same agreement on a labelled mesh, torus or
// hypercube and a graph with fractional weights, both read from the
// bytes. An odd torus has no labels and is skipped.
func FuzzLabelsMatchMatrix(f *testing.F) {
	f.Add([]byte{0, 3, 4, 2, 3, 7, 1, 9, 2, 5})
	f.Add([]byte{0, 1, 2, 6, 8, 3, 3, 1, 4, 0, 2})
	f.Add([]byte{1, 2, 5, 4, 9, 0, 1, 2, 3})
	f.Add([]byte{2, 4, 12, 1, 2, 3, 4, 5, 6, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		var to topology.Topology
		switch kind := next() % 3; kind {
		case 2:
			to = topology.MustHypercube(next() % 7)
		default:
			dims := make([]int, 1+next()%3)
			for i := range dims {
				dims[i] = 1 + next()%6
			}
			if kind == 0 {
				to = topology.MustTorus(dims...)
			} else {
				to = topology.MustMesh(dims...)
			}
		}
		if d := topology.ClosedDists(to); d.Labels() == nil {
			return
		}
		n := to.Nodes()
		b := taskgraph.NewBuilder(n)
		for e := next() % (3 * n); e > 0; e-- {
			b.AddEdge(next()%n, next()%n, float64(1+next())/7)
		}
		requireLabelsMatchMatrix(t, b.Build("fuzz"), to)
	})
}
