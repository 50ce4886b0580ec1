package baselines

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/taskgraph"
	"repro/internal/topology"
)

func TestBaselinesProduceBijections(t *testing.T) {
	g := taskgraph.Mesh2D(4, 4, 100)
	to := topology.MustTorus(4, 4)
	strategies := []core.Strategy{
		Annealing{Seed: 1},
		Snake{TaskDims: []int{4, 4}},
	}
	for _, s := range strategies {
		m, err := s.Map(g, to)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if err := m.Validate(g, to); err != nil {
			t.Errorf("%s: %v", s.Name(), err)
		}
	}
}

func TestBaselinesRejectSizeMismatch(t *testing.T) {
	g := taskgraph.Mesh2D(4, 4, 100)
	to := topology.MustTorus(4, 5)
	strategies := []core.Strategy{
		Annealing{}, Snake{TaskDims: []int{4, 4}},
	}
	for _, s := range strategies {
		if _, err := s.Map(g, to); err == nil {
			t.Errorf("%s: want error for size mismatch", s.Name())
		}
	}
}

func TestAnnealingApproachesOptimal(t *testing.T) {
	g := taskgraph.Mesh2D(4, 4, 100)
	to := topology.MustTorus(4, 4)
	m, err := Annealing{Seed: 1}.Map(g, to)
	if err != nil {
		t.Fatal(err)
	}
	hpb := core.HopsPerByte(g, to, m)
	if hpb > 1.4 {
		t.Errorf("annealing hops/byte = %v, want near optimal 1.0", hpb)
	}
}

func TestAnnealingBeatsRandomStart(t *testing.T) {
	g := taskgraph.Random(25, 80, 1, 10, 2)
	to := topology.MustTorus(5, 5)
	m, err := Annealing{Seed: 2}.Map(g, to)
	if err != nil {
		t.Fatal(err)
	}
	mr, err := (core.Random{Seed: 2}).Map(g, to)
	if err != nil {
		t.Fatal(err)
	}
	if core.HopBytes(g, to, m) >= core.HopBytes(g, to, mr) {
		t.Error("annealing no better than its random start")
	}
}

func TestSnakeOptimalOnMatchingGrid(t *testing.T) {
	// Snake on a ring-shaped chain: consecutive tasks adjacent, so the
	// 1D chain pattern maps with hops/byte 1 on a matching mesh.
	g := taskgraph.Mesh2D(1, 16, 100) // a 16-task chain
	me := topology.MustMesh(4, 4)
	m, err := Snake{TaskDims: []int{1, 16}}.Map(g, me)
	if err != nil {
		t.Fatal(err)
	}
	if hpb := core.HopsPerByte(g, me, m); hpb != 1 {
		t.Errorf("snake chain hops/byte = %v, want 1", hpb)
	}
}

func TestSnakeBeatsRandomOnMesh(t *testing.T) {
	g := taskgraph.Mesh2D(8, 8, 100)
	to := topology.MustTorus(8, 8)
	ms, err := Snake{TaskDims: []int{8, 8}}.Map(g, to)
	if err != nil {
		t.Fatal(err)
	}
	mr, err := (core.Random{Seed: 1}).Map(g, to)
	if err != nil {
		t.Fatal(err)
	}
	hs, hr := core.HopsPerByte(g, to, ms), core.HopsPerByte(g, to, mr)
	if hs >= hr/2 {
		t.Errorf("snake %v not well below random %v", hs, hr)
	}
}

func TestSnakeValidation(t *testing.T) {
	g := taskgraph.Mesh2D(4, 4, 100)
	if _, err := (Snake{TaskDims: []int{3, 4}}).Map(g, topology.MustTorus(4, 4)); err == nil {
		t.Error("want error for wrong task-dims volume")
	}
	if _, err := (Snake{TaskDims: []int{4, 4}}).Map(g, topology.MustHypercube(4)); err == nil {
		t.Error("want error for non-coordinated machine")
	}
	if _, err := (Snake{TaskDims: []int{0, 16}}).Map(g, topology.MustTorus(4, 4)); err == nil {
		t.Error("want error for zero dimension")
	}
}

func TestSnakeOrderConsecutiveAdjacent(t *testing.T) {
	for _, dims := range [][]int{{4, 4}, {3, 5}, {2, 3, 4}, {7}} {
		order := snakeOrder(dims)
		n := 1
		for _, d := range dims {
			n *= d
		}
		if len(order) != n {
			t.Fatalf("dims %v: %d entries, want %d", dims, len(order), n)
		}
		seen := make(map[int]bool)
		me := topology.MustMesh(dims...)
		for i, r := range order {
			if seen[r] {
				t.Fatalf("dims %v: duplicate rank %d", dims, r)
			}
			seen[r] = true
			if i > 0 {
				if d := me.Distance(order[i-1], r); d != 1 {
					t.Fatalf("dims %v: snake step %d->%d jumps %d hops", dims, order[i-1], r, d)
				}
			}
		}
	}
}

// The headline comparison: physical optimization comes close to (or
// matches) TopoLB's quality but needs far more work — the paper's stated
// reason to prefer heuristics.
func TestPhysicalOptimizationQualityComparable(t *testing.T) {
	g := taskgraph.Mesh2D(6, 6, 100)
	to := topology.MustTorus(6, 6)
	mT, err := (core.TopoLB{}).Map(g, to)
	if err != nil {
		t.Fatal(err)
	}
	mA, err := Annealing{Seed: 1}.Map(g, to)
	if err != nil {
		t.Fatal(err)
	}
	hT, hA := core.HopsPerByte(g, to, mT), core.HopsPerByte(g, to, mA)
	if hA > 2*hT {
		t.Errorf("annealing %v more than 2x TopoLB %v — schedule too weak", hA, hT)
	}
}

// TestPlacementHashes pins Annealing's placements on two machines,
// recorded at 008445d, when it called Topology.Distance per pair through
// its own swap delta. It reads the cached matrix through topology.Dists and
// core.SwapDelta now; the difference of two int32 distances and of two int
// distances is the same float64, so every accept decision, and the walk,
// must repeat.
func TestPlacementHashes(t *testing.T) {
	mesh, torus := taskgraph.Mesh2D(6, 6, 1e5), topology.MustTorus(6, 6)
	random, cube := taskgraph.Random(32, 96, 1, 20, 7), topology.MustHypercube(5)
	for _, tc := range []struct {
		s    core.Strategy
		g    *taskgraph.Graph
		t    topology.Topology
		want string
	}{
		{Annealing{Seed: 1}, mesh, torus, "660af2da25f79910"},
		{Annealing{Seed: 1}, random, cube, "760e276f4b25f0f2"},
	} {
		m, err := tc.s.Map(tc.g, tc.t)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		for _, p := range m {
			_ = binary.Write(h, binary.LittleEndian, int64(p))
		}
		if got := fmt.Sprintf("%x", h.Sum(nil)[:8]); got != tc.want {
			t.Errorf("%s on %s: placement hash %s, recorded %s", tc.s.Name(), tc.t.Name(), got, tc.want)
		}
	}
}
