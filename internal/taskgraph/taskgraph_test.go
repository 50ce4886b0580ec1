package taskgraph

import (
	"math"
	"testing"
)

func TestBuilderBasics(t *testing.T) {
	g := NewBuilder(3).
		AddEdge(0, 1, 10).
		AddEdge(1, 2, 20).
		SetVertexWeight(2, 5).
		Build("tri")
	if g.Name() != "tri" {
		t.Errorf("Name() = %q", g.Name())
	}
	if g.NumVertices() != 3 || g.NumEdges() != 2 {
		t.Fatalf("n=%d m=%d, want 3, 2", g.NumVertices(), g.NumEdges())
	}
	if g.VertexWeight(0) != 1 || g.VertexWeight(2) != 5 {
		t.Errorf("vertex weights wrong: %v %v", g.VertexWeight(0), g.VertexWeight(2))
	}
	if got := g.EdgeWeight(1, 0); got != 10 {
		t.Errorf("EdgeWeight(1,0) = %v, want 10 (symmetric)", got)
	}
	if got := g.EdgeWeight(0, 2); got != 0 {
		t.Errorf("EdgeWeight(0,2) = %v, want 0", got)
	}
}

func TestBuilderAccumulatesDuplicateEdges(t *testing.T) {
	g := NewBuilder(2).AddEdge(0, 1, 5).AddEdge(1, 0, 7).Build("dup")
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1", g.NumEdges())
	}
	if got := g.EdgeWeight(0, 1); got != 12 {
		t.Errorf("EdgeWeight = %v, want 12", got)
	}
}

func TestBuilderDropsSelfLoopsAndZeroWeight(t *testing.T) {
	g := NewBuilder(2).AddEdge(0, 0, 100).AddEdge(0, 1, 0).Build("x")
	if g.NumEdges() != 0 {
		t.Errorf("NumEdges = %d, want 0", g.NumEdges())
	}
}

func TestBuilderPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"zero vertices":    func() { NewBuilder(0) },
		"edge range":       func() { NewBuilder(2).AddEdge(0, 2, 1) },
		"negative edge":    func() { NewBuilder(2).AddEdge(0, 1, -1) },
		"negative vweight": func() { NewBuilder(2).SetVertexWeight(0, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: want panic", name)
				}
			}()
			f()
		}()
	}
}

func TestTotals(t *testing.T) {
	g := NewBuilder(3).AddEdge(0, 1, 10).AddEdge(1, 2, 20).AddEdge(0, 2, 30).Build("t")
	if got := g.TotalComm(); got != 60 {
		t.Errorf("TotalComm = %v, want 60", got)
	}
	if got := g.TotalLoad(); got != 3 {
		t.Errorf("TotalLoad = %v, want 3", got)
	}
	if got := g.WeightedDegree(0); got != 40 {
		t.Errorf("WeightedDegree(0) = %v, want 40", got)
	}
}

func TestNeighborsSortedAndConsistent(t *testing.T) {
	g := NewBuilder(5).AddEdge(4, 0, 1).AddEdge(4, 2, 1).AddEdge(4, 1, 1).Build("s")
	adj, _ := g.Neighbors(4)
	for i := 1; i < len(adj); i++ {
		if adj[i-1] >= adj[i] {
			t.Fatalf("adjacency not sorted: %v", adj)
		}
	}
	if g.Degree(4) != 3 || g.MaxDegree() != 3 {
		t.Errorf("Degree(4)=%d MaxDegree=%d", g.Degree(4), g.MaxDegree())
	}
}

func TestMesh2DStructure(t *testing.T) {
	g := Mesh2D(4, 4, 100)
	if g.NumVertices() != 16 {
		t.Fatalf("n = %d", g.NumVertices())
	}
	// 2D mesh: 2*4*3 = 24 edges.
	if g.NumEdges() != 24 {
		t.Fatalf("m = %d, want 24", g.NumEdges())
	}
	// Corner has 2 neighbors, edge 3, interior 4.
	if g.Degree(0) != 2 {
		t.Errorf("corner degree = %d, want 2", g.Degree(0))
	}
	if g.Degree(1) != 3 {
		t.Errorf("boundary degree = %d, want 3", g.Degree(1))
	}
	if g.Degree(5) != 4 {
		t.Errorf("interior degree = %d, want 4", g.Degree(5))
	}
	if got := g.TotalComm(); got != 2400 {
		t.Errorf("TotalComm = %v, want 2400", got)
	}
}

func TestMesh3DStructure(t *testing.T) {
	g := Mesh3D(8, 8, 8, 1024)
	if g.NumVertices() != 512 {
		t.Fatalf("n = %d, want 512 (paper's Table 1 size)", g.NumVertices())
	}
	// 3 * 8*8*7 = 1344 edges.
	if g.NumEdges() != 1344 {
		t.Fatalf("m = %d, want 1344", g.NumEdges())
	}
	if g.MaxDegree() != 6 {
		t.Errorf("MaxDegree = %d, want 6", g.MaxDegree())
	}
}

func TestRingStructure(t *testing.T) {
	g := Ring(10, 7)
	if g.NumEdges() != 10 {
		t.Fatalf("m = %d, want 10", g.NumEdges())
	}
	for v := 0; v < 10; v++ {
		if g.Degree(v) != 2 {
			t.Fatalf("Degree(%d) = %d", v, g.Degree(v))
		}
	}
}

func TestTorus2DStructure(t *testing.T) {
	g := Torus2D(4, 4, 1)
	if g.NumEdges() != 32 {
		t.Fatalf("m = %d, want 32", g.NumEdges())
	}
	for v := 0; v < 16; v++ {
		if g.Degree(v) != 4 {
			t.Fatalf("Degree(%d) = %d, want 4", v, g.Degree(v))
		}
	}
}

func TestAllToAllStructure(t *testing.T) {
	g := AllToAll(6, 2)
	if g.NumEdges() != 15 {
		t.Fatalf("m = %d, want 15", g.NumEdges())
	}
	if g.AverageDegree() != 5 {
		t.Errorf("AverageDegree = %v, want 5", g.AverageDegree())
	}
}

func TestRandomGraphDeterministicAndConnectedSize(t *testing.T) {
	g1 := Random(50, 150, 1, 10, 42)
	g2 := Random(50, 150, 1, 10, 42)
	if g1.NumEdges() != g2.NumEdges() || g1.TotalComm() != g2.TotalComm() {
		t.Error("Random not deterministic for fixed seed")
	}
	g3 := Random(50, 150, 1, 10, 43)
	if g1.TotalComm() == g3.TotalComm() {
		t.Error("different seeds gave identical graphs (suspicious)")
	}
	if g1.NumEdges() < 50 {
		t.Errorf("edges = %d, want >= n", g1.NumEdges())
	}
	// Hamiltonian cycle guarantee: every vertex has degree >= 2.
	for v := 0; v < 50; v++ {
		if g1.Degree(v) < 2 {
			t.Fatalf("vertex %d degree %d < 2", v, g1.Degree(v))
		}
	}
}

func TestLeanMDShape(t *testing.T) {
	const p = 18
	g := LeanMD(p, 1000, 1)
	if g.NumVertices() != LeanMDCells+p {
		t.Fatalf("n = %d, want %d", g.NumVertices(), LeanMDCells+p)
	}
	// Interior cells have 26 cell neighbors (plus possibly one integrator).
	found26 := false
	for v := 0; v < LeanMDCells; v++ {
		if d := g.Degree(v); d >= 26 && d <= 28 {
			found26 = true
			break
		}
	}
	if !found26 {
		t.Error("no interior cell with ~26 neighbors found")
	}
	// Face neighbors carry 4x corner bytes: cell (0,0,0)=0 and (1,0,0)=id.
	face := g.EdgeWeight(0, 15*12) // (1,0,0) with cy=15, cz=12
	corner := g.EdgeWeight(0, (1*15+1)*12+1)
	if math.Abs(face/corner-4) > 1e-9 {
		t.Errorf("face/corner ratio = %v, want 4", face/corner)
	}
	// Deterministic.
	h := LeanMD(p, 1000, 1)
	if h.TotalComm() != g.TotalComm() {
		t.Error("LeanMD not deterministic")
	}
}

func TestLeanMDIntegratorsConnected(t *testing.T) {
	g := LeanMD(12, 100, 3)
	for i := 0; i < 12; i++ {
		if g.Degree(LeanMDCells+i) == 0 {
			t.Errorf("integrator %d has no edges", i)
		}
	}
}
