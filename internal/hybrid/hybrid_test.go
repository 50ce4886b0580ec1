package hybrid

import (
	"testing"

	"repro/internal/core"
	"repro/internal/taskgraph"
	"repro/internal/topology"
)

func TestHybridProducesBijection(t *testing.T) {
	g := taskgraph.Mesh2D(8, 8, 100)
	to := topology.MustTorus(8, 8)
	m, err := Hybrid{Block: []int{4, 4}, Seed: 1}.Map(g, to)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(g, to); err != nil {
		t.Fatal(err)
	}
}

func TestHybridValidation(t *testing.T) {
	g := taskgraph.Mesh2D(8, 8, 100)
	to := topology.MustTorus(8, 8)
	cases := map[string]Hybrid{
		"wrong dims count":  {Block: []int{4}},
		"non-divisible":     {Block: []int{3, 4}},
		"zero block extent": {Block: []int{0, 4}},
	}
	for name, h := range cases {
		if _, err := h.Map(g, to); err == nil {
			t.Errorf("%s: want error", name)
		}
	}
	if _, err := (Hybrid{Block: []int{2, 2}}).Map(g, topology.MustHypercube(6)); err == nil {
		t.Error("non-coordinated machine: want error")
	}
	small := taskgraph.Mesh2D(4, 4, 100)
	if _, err := (Hybrid{Block: []int{2, 2}}).Map(small, to); err == nil {
		t.Error("size mismatch: want error")
	}
}

func TestHybridNearTopoLBQuality(t *testing.T) {
	// The hierarchical approximation should stay within ~2.5x of flat
	// TopoLB on a mesh pattern and far below random.
	g := taskgraph.Mesh2D(8, 8, 100)
	to := topology.MustTorus(8, 8)
	mH, err := Hybrid{Block: []int{4, 4}, Seed: 1}.Map(g, to)
	if err != nil {
		t.Fatal(err)
	}
	mT, err := (core.TopoLB{}).Map(g, to)
	if err != nil {
		t.Fatal(err)
	}
	mR, err := (core.Random{Seed: 1}).Map(g, to)
	if err != nil {
		t.Fatal(err)
	}
	hH := core.HopsPerByte(g, to, mH)
	hT := core.HopsPerByte(g, to, mT)
	hR := core.HopsPerByte(g, to, mR)
	if hH > 2.5*hT {
		t.Errorf("hybrid %v more than 2.5x flat TopoLB %v", hH, hT)
	}
	if hH >= hR {
		t.Errorf("hybrid %v not below random %v", hH, hR)
	}
}

func TestHybridOnMeshMachine(t *testing.T) {
	g := taskgraph.Mesh2D(4, 8, 100)
	me := topology.MustMesh(4, 8)
	m, err := Hybrid{Block: []int{2, 4}, Seed: 2}.Map(g, me)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(g, me); err != nil {
		t.Fatal(err)
	}
}

func TestHybridThreeDimensional(t *testing.T) {
	g := taskgraph.Mesh3D(4, 4, 4, 100)
	to := topology.MustTorus(4, 4, 4)
	m, err := Hybrid{Block: []int{2, 2, 2}, Seed: 1}.Map(g, to)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(g, to); err != nil {
		t.Fatal(err)
	}
}

func TestHybridWholeMachineBlockEqualsFlat(t *testing.T) {
	// A single block covering the machine degenerates to local-only
	// mapping on a mesh of the full shape.
	g := taskgraph.Mesh2D(4, 4, 100)
	to := topology.MustMesh(4, 4)
	m, err := Hybrid{Block: []int{4, 4}, Seed: 1}.Map(g, to)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(g, to); err != nil {
		t.Fatal(err)
	}
	if hpb := core.HopsPerByte(g, to, m); hpb > 1.6 {
		t.Errorf("hops/byte = %v, want near 1 for whole-machine block", hpb)
	}
}

// TestInducedSubgraphStructure checks the block subgraph Map hands to its
// inner strategy: taskgraph.Induced on a block's members, in member order.
func TestInducedSubgraphStructure(t *testing.T) {
	g := taskgraph.Mesh2D(3, 3, 10)
	sub, err := taskgraph.Induced(g, []int{0, 1, 2}, taskgraph.NewPositions(g.NumVertices())) // top row: a path
	if err != nil {
		t.Fatal(err)
	}
	if sub.NumVertices() != 3 || sub.NumEdges() != 2 {
		t.Fatalf("induced shape (%d,%d), want (3,2)", sub.NumVertices(), sub.NumEdges())
	}
	if sub.EdgeWeight(0, 1) != 10 || sub.EdgeWeight(1, 2) != 10 {
		t.Error("induced edge weights wrong")
	}
	if sub.EdgeWeight(0, 2) != 0 {
		t.Error("unexpected induced edge 0-2")
	}
}
