package experiments

import (
	"time"

	topomap "repro"
	"repro/internal/baselines"
	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/taskgraph"
	"repro/internal/topology"
)

// ExtrasStrategies pits TopoLB against the related-work mappers of §2
// that the strategy front keeps — simulated annealing and snake
// (space-filling-curve) mapping — on hop-byte quality and running time.
// Physical optimization approaches heuristic quality at orders of
// magnitude more work, the paper's core argument for heuristics.
func ExtrasStrategies(quick bool) (*Table, error) {
	side := 8
	if !quick {
		side = 16
	}
	g := taskgraph.Mesh2D(side, side, 1e5)
	torus := topology.MustTorus(side, side)
	t := &Table{
		ID:      "extras-strategies",
		Title:   "TopoLB vs related-work mappers (2D-mesh onto 2D-torus)",
		Columns: []string{"strategy", "hops_per_byte", "runtime_ms"},
		Notes:   "strategy column: 1=TopoLB 2=TopoCentLB 3=Snake 5=Annealing 7=Random",
	}
	strategies := []core.Strategy{
		core.TopoLB{},
		core.TopoCentLB{},
		baselines.Snake{TaskDims: []int{side, side}},
		baselines.Annealing{Seed: 1},
		core.Random{Seed: 1},
	}
	// A code names one strategy in every run of the table; the gaps are
	// strategies it no longer runs.
	codes := []float64{1, 2, 3, 5, 7}
	for i, s := range strategies {
		start := time.Now()
		m, err := s.Map(g, torus)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []float64{
			codes[i],
			core.HopsPerByte(g, torus, m),
			float64(time.Since(start).Microseconds()) / 1e3,
		})
	}
	return t, nil
}

// ExtrasSFC compares the near-linear geometric tier (sfc, rcb-sfc)
// against the hierarchical multilevel mapper and the flat TopoLB
// pipeline across machine topologies: hop-byte quality and wall-clock
// mapping time per (strategy, topology) cell. The geometric strategies
// consume the stencil's lattice coordinates, exactly as topomapd feeds
// them.
func ExtrasSFC(quick bool) (*Table, error) {
	pattern := "stencil9:64,64"
	topos := []string{"torus:16,16", "mesh:8,8,8"}
	if quick {
		pattern = "stencil9:32,32"
		topos = []string{"torus:8,8", "mesh:4,4,4"}
	}
	g, err := cliutil.ParsePattern(pattern, 1e5, 1)
	if err != nil {
		return nil, err
	}
	coords := cliutil.PatternCoords(pattern, 1)
	strategies := []core.Strategy{
		core.SFC{Coords: coords},
		core.RCBSFC{Coords: coords},
		core.MultilevelMap{},
		core.TopoLB{},
	}
	t := &Table{
		ID:      "extras-sfc",
		Title:   "geometric SFC tier vs multilevel and flat TopoLB (" + pattern + ")",
		Columns: []string{"topo", "strategy", "hops_per_byte", "runtime_ms"},
		Notes: "topo column: 1=" + topos[0] + " 2=" + topos[1] +
			"; strategy column: 1=sfc 2=rcb-sfc 3=multilevel 4=topolb (flat pipeline)",
	}
	for ti, spec := range topos {
		topo, err := cliutil.ParseAnyTopology(spec)
		if err != nil {
			return nil, err
		}
		for si, s := range strategies {
			start := time.Now()
			res, err := topomap.MapTasks(g, topo, topomap.Multilevel{Seed: 1}, s)
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, []float64{
				float64(ti + 1),
				float64(si + 1),
				core.HopsPerByte(g, topo, res.Placement),
				float64(time.Since(start).Microseconds()) / 1e3,
			})
		}
	}
	return t, nil
}
