package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/taskgraph"
	"repro/internal/topology"
)

// bruteHopBytes is hop-bytes summed edge by edge from Topology.Distance,
// sharing nothing with the kernels' distance oracle.
func bruteHopBytes(g *taskgraph.Graph, to topology.Topology, m Mapping) float64 {
	hb := 0.0
	for v := 0; v < g.NumVertices(); v++ {
		adj, w := g.Neighbors(v)
		for i, u := range adj {
			if int32(v) < u {
				hb += w[i] * float64(to.Distance(m[v], m[u]))
			}
		}
	}
	return hb
}

// requireSwapDeltaExact fails unless SwapDelta, reading distances through
// d and rows from g, scores swapping tasks a and b — or, for b < 0, moving
// a to processor p — as exactly the change in bruteHopBytes. g's weights
// must be integers, so both sides are exact and must agree to the bit.
func requireSwapDeltaExact(tb testing.TB, g *taskgraph.Graph, to topology.Topology, d *topology.Dists, m Mapping, a, b, p int) {
	tb.Helper()
	pa, pb := m[a], p
	var adjB []int32
	var wB []float64
	if b >= 0 {
		pb = m[b]
		adjB, wB = g.Neighbors(b)
	}
	adjA, wA := g.Neighbors(a)
	got := SwapDelta(d, m, pa, pb, a, adjA, wA, b, adjB, wB)
	before := bruteHopBytes(g, to, m)
	m[a] = pb
	if b >= 0 {
		m[b] = pa
	}
	after := bruteHopBytes(g, to, m)
	m[a] = pa
	if b >= 0 {
		m[b] = pb
	}
	if want := after - before; math.Float64bits(got) != math.Float64bits(want) {
		tb.Fatalf("%s: a=%d (on %d) b=%d (on %d): SwapDelta %v, recomputed %v", to.Name(), a, pa, b, pb, got, want)
	}
}

// swapDeltaSources returns to's distance oracle with the cached matrix and
// without it, as NewDists answers under SetDistanceMatrixCap(0).
func swapDeltaSources(to topology.Topology) map[string]*topology.Dists {
	withMatrix := topology.NewDists(to)
	prev := topology.SetDistanceMatrixCap(0)
	noMatrix := topology.NewDists(to)
	topology.SetDistanceMatrixCap(prev)
	return map[string]*topology.Dists{"matrix": &withMatrix, "no-matrix": &noMatrix}
}

// TestPropertySwapDeltaMatchesRecomputation: the one delta kernel equals
// the recomputed hop-bytes difference, to the bit, for every swap and
// every move of a random integer-weighted graph placed with sharing on a
// small machine of every topology.Machines() row, an even torus, a
// hierarchy and a Graph, each read through the cached matrix and through
// the closed form. The closed form of the mesh, the even torus and the
// hypercube is their partial-cube labels, so SwapDelta's label loops are
// the ones under test there.
func TestPropertySwapDeltaMatchesRecomputation(t *testing.T) {
	var machines []topology.Topology
	shapes := map[int][]int{0: {3, 4}, 1: {3}, 2: {2, 3}}
	for _, row := range topology.Machines() {
		m, err := row.New(shapes[row.Arity])
		if err != nil {
			t.Fatalf("%s%v: %v", row.Kind, shapes[row.Arity], err)
		}
		machines = append(machines, m)
	}
	evenTorus := topology.MustTorus(4, 2)
	machines = append(machines, evenTorus)
	labelled := map[string]bool{
		topology.MustMesh(3, 4).Name():   true,
		topology.MustHypercube(3).Name(): true,
		evenTorus.Name():                 true,
	}
	g, err := topology.NewGraph(7, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 0}, {1, 5}})
	if err != nil {
		t.Fatal(err)
	}
	machines = append(machines, g, mustHier(t, "pod:2@70/rack:2@7/node:4@3:torus-2x2"))
	for i, to := range machines {
		for name, d := range swapDeltaSources(to) {
			if want := labelled[to.Name()] && name == "no-matrix"; (d.Labels() != nil) != want {
				t.Fatalf("%s/%s: reads labels: %v, want %v", to.Name(), name, d.Labels() != nil, want)
			}
			t.Run(to.Name()+"/"+name, func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(i)))
				n := to.Nodes() + 3 // tasks outnumber processors
				tg := intWeightGraph(n, 2*n, rng)
				m := randomPlacement(n, to.Nodes(), rng)
				for a := 0; a < n; a++ {
					for b := 0; b < n; b++ {
						requireSwapDeltaExact(t, tg, to, d, m, a, b, 0)
					}
					for p := 0; p < to.Nodes(); p++ {
						requireSwapDeltaExact(t, tg, to, d, m, a, -1, p)
					}
				}
			})
		}
	}
}

// FuzzSwapDeltaMatchesRecomputation: the same check on inputs read from
// the bytes — a machine (a topology.Machines() row and its extents, a
// Graph or a hierarchy) and one of its distance sources, a random
// integer-weighted task graph, a placement, and a swap or a move.
func FuzzSwapDeltaMatchesRecomputation(f *testing.F) {
	f.Add([]byte{0, 3, 4, 2, 3, 0, 9, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{2, 5, 1, 12, 7, 0, 1, 5, 3, 2, 8})
	f.Add([]byte{5, 4, 1, 2, 9, 14, 1, 3, 9, 0, 2, 1, 0, 4})
	f.Add([]byte{6, 1, 0, 3, 9, 4, 4, 0, 11, 2, 7, 7, 1, 5})
	// torus:4,2 without the matrix, so SwapDelta reads its labels: eight
	// tasks on a ten-edge graph, tasks 1 and 5 swapped.
	f.Add([]byte{0, 1, 3, 1, 1, 6, 10,
		0, 1, 2, 1, 2, 3, 2, 3, 1, 3, 4, 5, 4, 5, 2,
		5, 6, 1, 6, 7, 4, 7, 0, 2, 0, 4, 3, 2, 6, 1,
		0, 7, 3, 5, 2, 6, 1, 4, 1, 0, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		rows := topology.Machines()
		var to topology.Topology
		switch k := next() % (len(rows) + 2); {
		case k < len(rows):
			to = fuzzMachine(t, rows[k], next)
		case k == len(rows):
			to = fuzzGraph(t, next)
		default:
			to = fuzzHier(t, next)
		}
		sources := swapDeltaSources(to)
		d := sources["no-matrix"]
		if next()%2 == 0 {
			d = sources["matrix"]
		}
		n := 2 + next()%16
		b := taskgraph.NewBuilder(n)
		for e := next() % (3 * n); e > 0; e-- {
			b.AddEdge(next()%n, next()%n, float64(1+next()))
		}
		g := b.Build("fuzz")
		m := make(Mapping, n)
		for v := range m {
			m[v] = next() % to.Nodes()
		}
		a := next() % n
		if next()%2 == 0 {
			requireSwapDeltaExact(t, g, to, d, m, a, next()%n, 0)
		} else {
			requireSwapDeltaExact(t, g, to, d, m, a, -1, next()%to.Nodes())
		}
	})
}

// TestPropertyHopBytesInvariantUnderTaskRelabeling: permuting task ids
// (and the mapping with them) leaves hop-bytes unchanged.
func TestPropertyHopBytesInvariantUnderTaskRelabeling(t *testing.T) {
	f := func(seed int64) bool {
		g := taskgraph.Random(16, 48, 1, 8, seed)
		to := topology.MustTorus(4, 4)
		m, err := Random{Seed: seed}.Map(g, to)
		if err != nil {
			return false
		}
		hb := HopBytes(g, to, m)
		// Relabel tasks by a rotation: new task i is old task (i+1) mod n.
		b := taskgraph.NewBuilder(16)
		for v := 0; v < 16; v++ {
			adj, w := g.Neighbors(v)
			for i, u := range adj {
				if int32(v) < u {
					b.AddEdge((v+1)%16, (int(u)+1)%16, w[i])
				}
			}
		}
		g2 := b.Build("relabel")
		m2 := make(Mapping, 16)
		for v := 0; v < 16; v++ {
			m2[(v+1)%16] = m[v]
		}
		return math.Abs(HopBytes(g2, to, m2)-hb) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestPropertyHopBytesLowerBoundTotalComm: on a connected topology every
// inter-processor byte travels at least one hop, so HB >= TotalComm for
// any bijective mapping (no two tasks share a processor).
func TestPropertyHopBytesLowerBoundTotalComm(t *testing.T) {
	to := topology.MustTorus(4, 4)
	f := func(seed int64) bool {
		g := taskgraph.Random(16, 50, 1, 10, seed)
		m, err := Random{Seed: seed}.Map(g, to)
		if err != nil {
			return false
		}
		return HopBytes(g, to, m) >= g.TotalComm()-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestPropertyRefineMonotonic: refinement never increases hop-bytes,
// regardless of the starting mapping.
func TestPropertyRefineMonotonic(t *testing.T) {
	to := topology.MustMesh(4, 4)
	f := func(seed int64) bool {
		g := taskgraph.Random(16, 40, 1, 10, seed)
		m, err := Random{Seed: seed}.Map(g, to)
		if err != nil {
			return false
		}
		before := HopBytes(g, to, m)
		Refine(g, to, m, 4)
		return HopBytes(g, to, m) <= before+1e-9 && m.Validate(g, to) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
