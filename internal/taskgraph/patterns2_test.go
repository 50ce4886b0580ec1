package taskgraph

import (
	"math/bits"
	"testing"
)

func TestStencil9Structure(t *testing.T) {
	g := Stencil9(4, 4, 400)
	// Face edges: 2*4*3 = 24; diagonal edges: 2*3*3 = 18.
	if g.NumEdges() != 42 {
		t.Fatalf("edges = %d, want 42", g.NumEdges())
	}
	// Interior task: 8 neighbors.
	if g.Degree(5) != 8 {
		t.Errorf("interior degree = %d, want 8", g.Degree(5))
	}
	// Diagonal edges carry a quarter of the face bytes.
	if got := g.EdgeWeight(0, 5); got != 100 {
		t.Errorf("diagonal weight = %v, want 100", got)
	}
	if got := g.EdgeWeight(0, 1); got != 400 {
		t.Errorf("face weight = %v, want 400", got)
	}
}

func TestTransposeStructure(t *testing.T) {
	g := Transpose(4, 1000)
	if g.NumVertices() != 16 {
		t.Fatalf("n = %d", g.NumVertices())
	}
	// n(n-1)/2 = 6 exchange pairs; diagonal tasks are silent.
	if g.NumEdges() != 6 {
		t.Fatalf("edges = %d, want 6", g.NumEdges())
	}
	for i := 0; i < 4; i++ {
		if g.Degree(i*4+i) != 0 {
			t.Errorf("diagonal task (%d,%d) has edges", i, i)
		}
	}
	if g.EdgeWeight(0*4+1, 1*4+0) != 1000 {
		t.Error("missing (0,1)-(1,0) exchange")
	}
}

func TestBinaryTreeStructure(t *testing.T) {
	g := BinaryTree(15, 64)
	if g.NumEdges() != 14 {
		t.Fatalf("edges = %d, want 14", g.NumEdges())
	}
	if g.Degree(0) != 2 {
		t.Errorf("root degree = %d, want 2", g.Degree(0))
	}
	leaves := 0
	for v := 0; v < 15; v++ {
		if g.Degree(v) == 1 {
			leaves++
		}
	}
	if leaves != 8 {
		t.Errorf("leaves = %d, want 8", leaves)
	}
}

func TestButterflyIsHypercube(t *testing.T) {
	g := Butterfly(4, 100)
	if g.NumVertices() != 16 {
		t.Fatalf("n = %d", g.NumVertices())
	}
	if g.NumEdges() != 32 { // 16/2 * 4 stages
		t.Fatalf("edges = %d, want 32", g.NumEdges())
	}
	for v := 0; v < 16; v++ {
		adj, _ := g.Neighbors(v)
		for _, u := range adj {
			if bits.OnesCount32(uint32(v^int(u))) != 1 {
				t.Fatalf("edge %d-%d not a hypercube edge", v, u)
			}
		}
	}
}

func TestWavefrontMatchesMeshFootprint(t *testing.T) {
	g := Wavefront(5, 3, 10)
	m := Mesh2D(5, 3, 10)
	if g.NumEdges() != m.NumEdges() {
		t.Errorf("wavefront edges %d != mesh edges %d", g.NumEdges(), m.NumEdges())
	}
}

func TestPattern2Panics(t *testing.T) {
	for name, f := range map[string]func(){
		"stencil9":  func() { Stencil9(0, 4, 1) },
		"transpose": func() { Transpose(1, 1) },
		"bintree":   func() { BinaryTree(0, 1) },
		"butterfly": func() { Butterfly(0, 1) },
		"wavefront": func() { Wavefront(1, 0, 1) },
		// A grid fills its CSR itself, with AddEdge's rule for bytes.
		"negative bytes": func() { Stencil9(3, 3, -1) },
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
