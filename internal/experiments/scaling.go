package experiments

import (
	"time"

	"repro/internal/core"
	"repro/internal/hybrid"
	"repro/internal/partition"
	"repro/internal/taskgraph"
	"repro/internal/topology"
)

// ExtrasHybrid quantifies the §6 future-work trade: the hierarchical
// block mapper against flat TopoLB, quality and runtime as p grows.
func ExtrasHybrid(quick bool) (*Table, error) {
	sides := []int{8, 16}
	if !quick {
		sides = append(sides, 32, 48)
	}
	t := &Table{
		ID:      "extras-hybrid",
		Title:   "hierarchical Hybrid mapper vs flat TopoLB (2D-mesh onto 2D-torus)",
		Columns: []string{"p", "hpb_flat", "hpb_hybrid", "ms_flat", "ms_hybrid"},
		Notes:   "hybrid tiles the machine into 4x4 blocks (paper §6 future work)",
	}
	for _, side := range sides {
		g := taskgraph.Mesh2D(side, side, 1e5)
		torus := topology.MustTorus(side, side)
		start := time.Now()
		mF, err := (core.TopoLB{}).Map(g, torus)
		if err != nil {
			return nil, err
		}
		flatMs := float64(time.Since(start).Microseconds()) / 1e3
		start = time.Now()
		mH, err := (hybrid.Hybrid{Block: []int{4, 4}, Seed: 1}).Map(g, torus)
		if err != nil {
			return nil, err
		}
		hybMs := float64(time.Since(start).Microseconds()) / 1e3
		t.Rows = append(t.Rows, []float64{
			float64(side * side),
			core.HopsPerByte(g, torus, mF),
			core.HopsPerByte(g, torus, mH),
			flatMs, hybMs,
		})
	}
	return t, nil
}

// ExtrasScaling validates the paper's §4.4 complexity analysis: TopoLB's
// running time should grow ~quadratically with p on constant-degree task
// graphs (O(p·|Et|) table updates plus O(p²) selection scans), while
// TopoCentLB is cheaper by a constant factor and the hierarchical Hybrid
// grows much more gently.
func ExtrasScaling(quick bool) (*Table, error) {
	sides := []int{8, 16}
	if !quick {
		sides = append(sides, 32, 48, 64)
	}
	t := &Table{
		ID:      "extras-scaling",
		Title:   "strategy running time (ms) vs machine size",
		Columns: []string{"p", "topolb_ms", "topocentlb_ms", "hybrid4x4_ms"},
		Notes:   "2D-mesh pattern onto square 2D-torus; validates §4.4 complexity",
	}
	for _, side := range sides {
		g := taskgraph.Mesh2D(side, side, 1e5)
		torus := topology.MustTorus(side, side)
		row := []float64{float64(side * side)}
		for _, s := range []core.Strategy{
			core.TopoLB{},
			core.TopoCentLB{},
			hybrid.Hybrid{Block: []int{4, 4}, Seed: 1},
		} {
			start := time.Now()
			if _, err := s.Map(g, torus); err != nil {
				return nil, err
			}
			row = append(row, float64(time.Since(start).Microseconds())/1e3)
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// ExtrasScaleMultilevel measures the hierarchical multilevel mapper
// (coarsen → map → refine, closed-form distances only) against the flat
// two-phase pipeline as tasks and processors grow together. The flat
// pipeline stops being runnable once the machine needs a p² distance
// matrix it cannot afford; the multilevel mapper continues to the
// million-task row the conclusion's scalability argument calls for.
func ExtrasScaleMultilevel(quick bool) (*Table, error) {
	type pt struct {
		g    *taskgraph.Graph
		topo topology.Topology
		flat bool
	}
	pts := []pt{
		{taskgraph.Stencil9(64, 64, 1e5), topology.MustTorus(16, 16), true},
		{taskgraph.RandomGeometricDeg(4096, 8, 1e5, 1), topology.MustTorus(16, 16), true},
		{taskgraph.Stencil9(128, 128, 1e5), topology.MustTorus(32, 16), true},
	}
	if !quick {
		pts = append(pts,
			pt{taskgraph.RandomGeometricDeg(65536, 8, 1e5, 1), topology.MustTorus(32, 32), true},
			pt{taskgraph.Stencil9(256, 256, 1e5), topology.MustTorus(32, 32), true},
			pt{taskgraph.Stencil9(512, 512, 1e5), topology.MustTorus(16, 16, 16), false},
			pt{taskgraph.RandomGeometricDeg(1048576, 8, 1e5, 1), topology.MustTorus(64, 32, 32), false},
			pt{taskgraph.Stencil9(1024, 1024, 1e5), topology.MustTorus(64, 32, 32), false},
		)
	}
	t := &Table{
		ID:      "scale-multilevel",
		Title:   "multilevel mapper vs flat pipeline at scale (stencil + rgg onto tori)",
		Columns: []string{"rgg", "n", "p", "hpb_flat", "hpb_ml", "ms_flat", "ms_ml"},
		Notes: "rgg=1 marks random-geometric rows; 0 in the flat columns = flat pipeline " +
			"not run (p² distance matrix infeasible). Flat parts carry vertex-weight slack; " +
			"multilevel enforces strict ±1 task balance, which costs cut on irregular graphs.",
	}
	for _, c := range pts {
		n, p := c.g.NumVertices(), c.topo.Nodes()
		isRGG := 0.0
		if len(c.g.Name()) >= 3 && c.g.Name()[:3] == "rgg" {
			isRGG = 1
		}
		row := []float64{isRGG, float64(n), float64(p), 0, 0, 0, 0}
		if c.flat {
			start := time.Now()
			flat, err := core.MapTasks(c.g, c.topo, partition.Multilevel{Seed: 1}, core.TopoLB{})
			if err != nil {
				return nil, err
			}
			row[5] = float64(time.Since(start).Microseconds()) / 1e3
			row[3] = core.HopsPerByte(c.g, c.topo, flat.Placement)
		}
		start := time.Now()
		pl, err := (core.MultilevelMap{}).Place(c.g, c.topo)
		if err != nil {
			return nil, err
		}
		row[6] = float64(time.Since(start).Microseconds()) / 1e3
		row[4] = core.HopsPerByte(c.g, c.topo, core.Mapping(pl))
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}
