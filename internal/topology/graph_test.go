package topology

import (
	"strings"
	"sync"
	"testing"
)

func ring(n int) [][2]int {
	edges := make([][2]int, 0, n)
	for i := 0; i < n; i++ {
		edges = append(edges, [2]int{i, (i + 1) % n})
	}
	return edges
}

func TestNewGraphValidation(t *testing.T) {
	if _, err := NewGraph(0, nil); err == nil {
		t.Error("n=0: want error")
	}
	if _, err := NewGraph(3, [][2]int{{0, 3}}); err == nil {
		t.Error("endpoint out of range: want error")
	}
	if _, err := NewGraph(3, [][2]int{{1, 1}}); err == nil {
		t.Error("self-loop: want error")
	}
	if _, err := NewGraph(3, [][2]int{{0, 1}, {1, 0}}); err == nil {
		t.Error("duplicate edge: want error")
	}
}

func TestGraphRingDistances(t *testing.T) {
	g, err := NewGraph(6, ring(6))
	if err != nil {
		t.Fatal(err)
	}
	to := MustTorus(6)
	for a := 0; a < 6; a++ {
		for b := 0; b < 6; b++ {
			if got, want := g.Distance(a, b), to.Distance(a, b); got != want {
				t.Errorf("Distance(%d,%d) = %d, want %d", a, b, got, want)
			}
		}
	}
}

// TestNewGraphRejectsDisconnected: every pair of a machine's processors
// has a distance, so a graph with more than one component is refused at
// construction, naming the first node that node 0 cannot reach, rather
// than answering -1 for the pairs across components (which the mapping
// kernels used to read as a saving).
func TestNewGraphRejectsDisconnected(t *testing.T) {
	for _, tc := range []struct {
		n     int
		edges [][2]int
		node  string
	}{
		{4, [][2]int{{0, 1}, {2, 3}}, "node 2 "},
		{4, [][2]int{{0, 1}}, "node 2 "},
		{2, nil, "node 1 "},
		{5, [][2]int{{0, 1}, {1, 2}, {2, 0}, {3, 4}}, "node 3 "},
		{5, [][2]int{{1, 2}, {2, 3}, {3, 4}}, "node 1 "},
	} {
		g, err := NewGraph(tc.n, tc.edges)
		if err == nil {
			t.Errorf("NewGraph(%d, %v) = %s, want an error", tc.n, tc.edges, g.Name())
			continue
		}
		if msg := err.Error(); !strings.Contains(msg, "disconnected") || !strings.Contains(msg, tc.node) {
			t.Errorf("NewGraph(%d, %v): error %q does not name %q", tc.n, tc.edges, msg, tc.node)
		}
	}
}

// TestGraphConnected: connected graphs are accepted, a single node
// included, and every distance they answer is a hop count.
func TestGraphConnected(t *testing.T) {
	for _, tc := range []struct {
		n     int
		edges [][2]int
	}{
		{1, nil},
		{5, ring(5)},
		{4, [][2]int{{0, 1}, {1, 2}, {2, 3}}},
		{5, [][2]int{{4, 0}, {4, 1}, {4, 2}, {4, 3}}},
	} {
		g, err := NewGraph(tc.n, tc.edges)
		if err != nil {
			t.Fatalf("NewGraph(%d, %v): %v", tc.n, tc.edges, err)
		}
		for a := 0; a < tc.n; a++ {
			for b := 0; b < tc.n; b++ {
				if d := g.Distance(a, b); d < 0 || d >= tc.n || (d == 0) != (a == b) {
					t.Errorf("%v: Distance(%d,%d) = %d", tc.edges, a, b, d)
				}
			}
		}
	}
}

func TestGraphDiameter(t *testing.T) {
	g, err := NewGraph(7, ring(7))
	if err != nil {
		t.Fatal(err)
	}
	if got := g.Diameter(); got != 3 {
		t.Errorf("ring(7) diameter = %d, want 3", got)
	}
}

func TestFromTopologyPreservesStructure(t *testing.T) {
	m := MustTorus(4, 3)
	g := FromTopology(m)
	if g.Nodes() != m.Nodes() {
		t.Fatalf("node count mismatch")
	}
	for a := 0; a < m.Nodes(); a++ {
		if len(g.Neighbors(a)) != len(m.Neighbors(a)) {
			t.Errorf("node %d: degree %d vs %d", a, len(g.Neighbors(a)), len(m.Neighbors(a)))
		}
	}
}

func TestGraphConcurrentDistanceReads(t *testing.T) {
	g := FromTopology(MustTorus(8, 8))
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for a := 0; a < g.Nodes(); a++ {
				b := (a*31 + seed) % g.Nodes()
				if d := g.Distance(a, b); d < 0 {
					t.Errorf("unreachable in connected graph")
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestEnumerateLinksGrid(t *testing.T) {
	m := MustMesh(3, 3)
	ls := EnumerateLinks(m)
	// 3x3 mesh: 12 undirected edges -> 24 directed links.
	if got := ls.Len(); got != 24 {
		t.Fatalf("Len() = %d, want 24", got)
	}
	for a := 0; a < m.Nodes(); a++ {
		first, to := ls.Row(a)
		for i, b := range to {
			if got := ls.Index(a, int(b)); got != int(first)+i {
				t.Errorf("Index(%d,%d) = %d, want %d", a, b, got, int(first)+i)
			}
			if m.Distance(a, int(b)) != 1 {
				t.Errorf("link (%d,%d) joins non-adjacent nodes", a, b)
			}
		}
	}
}

// TestLinkIdsAreNeighborPositions: on every machine kind and on a Graph, a
// link's id is its position in the concatenated Neighbors lists and no
// node repeats a neighbour, so the ids are the ones the map-based
// enumeration this CSR replaced gave (ascending source, then Neighbors
// order, duplicates skipped) and every per-link array keeps its order.
func TestLinkIdsAreNeighborPositions(t *testing.T) {
	var machines []Topology
	for _, row := range Machines() {
		shapes := map[int][][]int{0: {{2, 3}, {4, 1, 3}}, 1: {{3}}, 2: {{2, 3}, {3, 2}}}[row.Arity]
		for _, dims := range shapes {
			m, err := row.New(dims)
			if err != nil {
				t.Fatalf("%s%v: %v", row.Kind, dims, err)
			}
			machines = append(machines, m)
		}
	}
	g, err := NewGraph(5, [][2]int{{0, 1}, {3, 1}, {1, 2}, {4, 0}, {2, 4}})
	if err != nil {
		t.Fatal(err)
	}
	machines = append(machines, g, MustDragonfly(3, 1))
	for _, m := range machines {
		ls := EnumerateLinks(m)
		id := 0
		for a := 0; a < m.Nodes(); a++ {
			seen := map[int]bool{}
			for _, b := range m.Neighbors(a) {
				if seen[b] {
					t.Errorf("%s: node %d lists neighbour %d twice", m.Name(), a, b)
				}
				seen[b] = true
				if got := ls.Index(a, b); got != id {
					t.Errorf("%s: Index(%d,%d) = %d, want %d", m.Name(), a, b, got, id)
				}
				id++
			}
		}
		if ls.Len() != id {
			t.Errorf("%s: Len() = %d, want %d", m.Name(), ls.Len(), id)
		}
	}
}

func TestEnumerateLinksTorusCounts(t *testing.T) {
	// (4,4,4) torus: 3 links per node per dimension-direction = 6n directed.
	to := MustTorus(4, 4, 4)
	ls := EnumerateLinks(to)
	if got, want := ls.Len(), 6*64; got != want {
		t.Errorf("Len() = %d, want %d", got, want)
	}
}

func TestLinkIndexPanicsOnNonLink(t *testing.T) {
	ls := EnumerateLinks(MustMesh(2, 2))
	defer func() {
		if recover() == nil {
			t.Error("want panic for non-link")
		}
	}()
	ls.Index(0, 3)
}

func TestTotalDistances(t *testing.T) {
	to := MustTorus(4)
	out := make([]float64, 4)
	TotalDistances(to, out)
	// Ring of 4: distances from any node are 0,1,2,1 -> total 4.
	for i, v := range out {
		if v != 4 {
			t.Errorf("TotalDistances[%d] = %v, want 4", i, v)
		}
	}
}

func TestTotalDistancesParallelMatchesSequential(t *testing.T) {
	// torus(48,48) has 2304 nodes, crossing the parallel threshold; the
	// sums are integers, so both paths must agree exactly.
	to := MustTorus(48, 48)
	n := to.Nodes()
	par := make([]float64, n)
	TotalDistances(to, par)
	// Sequential reference via the symmetric sweep.
	seq := make([]float64, n)
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			d := float64(to.Distance(a, b))
			seq[a] += d
			seq[b] += d
		}
	}
	for p := 0; p < n; p++ {
		if par[p] != seq[p] {
			t.Fatalf("TotalDistances[%d]: parallel %v != sequential %v", p, par[p], seq[p])
		}
	}
	// On a vertex-transitive torus every row total is identical.
	for p := 1; p < n; p++ {
		if par[p] != par[0] {
			t.Fatalf("torus not vertex-transitive? row %d differs", p)
		}
	}
}
