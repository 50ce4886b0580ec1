package topomap_test

import (
	"math"
	"strings"
	"testing"

	topomap "repro"
)

func TestFacadeTopologyConstructors(t *testing.T) {
	if m, err := topomap.NewMesh(4, 4); err != nil || m.Nodes() != 16 {
		t.Errorf("NewMesh: %v", err)
	}
	if h, err := topomap.NewHypercube(5); err != nil || h.Nodes() != 32 {
		t.Errorf("NewHypercube: %v", err)
	}
	if f, err := topomap.NewFatTree(4, 2); err != nil || f.Nodes() != 16 {
		t.Errorf("NewFatTree: %v", err)
	}
	if d, err := topomap.NewDragonfly(4, 2); err != nil || d.Nodes() != 36 {
		t.Errorf("NewDragonfly: %v", err)
	}
	if g, err := topomap.NewGraphTopology(3, [][2]int{{0, 1}, {1, 2}}); err != nil || g.Nodes() != 3 {
		t.Errorf("NewGraphTopology: %v", err)
	}
	torus, err := topomap.NewTorus(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if topomap.MeanDistance(torus) != 2 || topomap.Diameter(torus) != 4 {
		t.Error("metric helpers wrong")
	}
}

// TestFacadeRejectsDisconnectedMachine: a machine whose processors cannot
// all reach each other has no hop distance between its components. It
// used to be accepted with a distance of -1 there, so TopoLB and
// TopoCentLB split RingPattern(4, 100) across the two components to
// [0 2 1 3] and reported hop-bytes of -400.
func TestFacadeRejectsDisconnectedMachine(t *testing.T) {
	g, err := topomap.NewGraphTopology(4, [][2]int{{0, 1}, {2, 3}})
	if err == nil {
		t.Fatalf("NewGraphTopology accepted a disconnected machine %s", g.Name())
	}
	if !strings.Contains(err.Error(), "node 2 is unreachable from node 0") {
		t.Errorf("error %q does not name node 2", err)
	}
	ring, err := topomap.NewGraphTopology(4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
	if err != nil {
		t.Fatal(err)
	}
	pattern := topomap.RingPattern(4, 100)
	for _, s := range []topomap.Strategy{topomap.TopoLB{}, topomap.TopoCentLB{}} {
		m, err := s.Map(pattern, ring)
		if err != nil {
			t.Fatal(err)
		}
		if hb := topomap.HopBytes(pattern, ring, m); hb != 400 {
			t.Errorf("%s: ring onto a ring machine has hop-bytes %v, want 400", s.Name(), hb)
		}
	}
}

func TestFacadePatternConstructors(t *testing.T) {
	cases := map[string]*topomap.TaskGraph{
		"mesh3d":    topomap.Mesh3DPattern(2, 2, 2, 10),
		"ring":      topomap.RingPattern(5, 10),
		"torus2d":   topomap.Torus2DPattern(3, 3, 10),
		"alltoall":  topomap.AllToAllPattern(4, 10),
		"random":    topomap.RandomGraph(10, 20, 1, 5, 1),
		"stencil9":  topomap.Stencil9Pattern(3, 3, 10),
		"transpose": topomap.TransposePattern(3, 10),
		"bintree":   topomap.BinaryTreePattern(7, 10),
		"butterfly": topomap.ButterflyPattern(3, 10),
		"wavefront": topomap.WavefrontPattern(3, 3, 10),
	}
	for name, g := range cases {
		if g == nil || g.NumVertices() == 0 {
			t.Errorf("%s: empty graph", name)
		}
	}
	b := topomap.NewBuilder(2)
	g := b.AddEdge(0, 1, 3).Build("pair")
	if g.TotalComm() != 3 {
		t.Error("builder facade broken")
	}
}

func TestFacadeGraphTransforms(t *testing.T) {
	g := topomap.RingPattern(6, 10)
	s := topomap.ScaleGraph(g, 3)
	if s.TotalComm() != 3*g.TotalComm() {
		t.Error("ScaleGraph wrong")
	}
	o, err := topomap.OverlayGraphs(g, s)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(o.TotalComm()-4*g.TotalComm()) > 1e-9 {
		t.Error("OverlayGraphs wrong")
	}
}

func TestFacadeRefine(t *testing.T) {
	g := topomap.Mesh2DPattern(4, 4, 100)
	machine, err := topomap.NewTorus(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	m, err := (topomap.Random{Seed: 3}).Map(g, machine)
	if err != nil {
		t.Fatal(err)
	}
	before := topomap.HopBytes(g, machine, m)
	topomap.Refine(g, machine, m, 8)
	if after := topomap.HopBytes(g, machine, m); after > before {
		t.Errorf("Refine increased hop-bytes: %v -> %v", before, after)
	}
}

func TestFacadeBaselineStrategies(t *testing.T) {
	g := topomap.Mesh2DPattern(4, 4, 100)
	machine, err := topomap.NewTorus(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []topomap.Strategy{
		topomap.Annealing{Seed: 1},
		topomap.Snake{TaskDims: []int{4, 4}},
		topomap.Hybrid{Block: []int{2, 2}, Seed: 1},
		topomap.TopoLB{Order: topomap.OrderFirst},
		topomap.TopoLB{Order: topomap.OrderThird},
	} {
		m, err := s.Map(g, machine)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if err := m.Validate(g, machine); err != nil {
			t.Errorf("%s: %v", s.Name(), err)
		}
	}
}

func TestFacadeRuntimeAndLBSim(t *testing.T) {
	g := topomap.Mesh2DPattern(8, 8, 1e4)
	torus, err := topomap.NewTorus(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := topomap.NewRuntime(topomap.GraphApp{G: g}, topomap.DefaultMachine(torus),
		topomap.WithWorkUnitTime(1e-6))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Run(3); err != nil {
		t.Fatal(err)
	}
	db, err := rt.Database()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := topomap.SimulateLBStep(db, torus, topomap.Multilevel{Seed: 1}, topomap.TopoLB{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.HopsPerByte <= 0 {
		t.Error("no hops/byte in report")
	}
	// WithInitialPlacement path.
	rt2, err := topomap.NewRuntime(topomap.GraphApp{G: g}, topomap.DefaultMachine(torus),
		topomap.WithInitialPlacement(make([]int, 64)))
	if err != nil {
		t.Fatal(err)
	}
	if rt2.Placement()[0] != 0 {
		t.Error("initial placement not applied")
	}
}

func TestFacadeMPIWorld(t *testing.T) {
	w, err := topomap.NewMPIWorld(16)
	if err != nil {
		t.Fatal(err)
	}
	w.Cart2D(4, 4, 1e4).ComputeAll(1e-6).AllReduce(8)
	torus, err := topomap.NewTorus(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	job, err := w.Launch(topomap.DefaultMachine(torus))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := job.Run(2); err != nil {
		t.Fatal(err)
	}
	if _, err := job.Rebalance(nil, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeChareExec(t *testing.T) {
	torus, err := topomap.NewTorus(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	done := false
	entries := []topomap.ChareEntry{
		func(ctx *topomap.ChareCtx, m topomap.ChareMsg) { ctx.Send(1, 100, nil) },
		func(ctx *topomap.ChareCtx, m topomap.ChareMsg) { done = true },
	}
	ex, err := topomap.NewChareExec(entries, []int{0, 1}, topomap.SimConfig{
		Topology: torus, LinkBandwidth: 1e8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.Inject(0, 1, nil); err != nil {
		t.Fatal(err)
	}
	ex.Run()
	if !done {
		t.Error("message-driven chain did not complete")
	}
}

func TestFacadeVisualization(t *testing.T) {
	g := topomap.Mesh2DPattern(2, 2, 10)
	machine, err := topomap.NewMesh(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	m, err := topomap.Identity{}.Map(g, machine)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := topomap.RenderPlacement(machine, m)
	if err != nil {
		t.Fatal(err)
	}
	if grid != "0 1\n2 3\n" {
		t.Errorf("grid = %q", grid)
	}
	heat, err := topomap.RenderHeat(machine, []float64{0, 1, 0.5, 1})
	if err != nil || heat == "" {
		t.Errorf("heat: %v %q", err, heat)
	}
	if out := topomap.Histogram([]float64{1, 2, 3}, 3, 10); out == "" {
		t.Error("empty histogram")
	}
	cube, err := topomap.NewHypercube(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := topomap.RenderPlacement(cube, m); err == nil {
		t.Error("non-grid machine: want error")
	}
}
