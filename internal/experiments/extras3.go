package experiments

import (
	"time"

	"repro/internal/core"
	"repro/internal/partition"
	"repro/internal/taskgraph"
	"repro/internal/topology"
)

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
