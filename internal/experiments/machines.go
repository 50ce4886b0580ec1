package experiments

import (
	"fmt"
	"time"

	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/hiertopo"
	"repro/internal/taskgraph"
	"repro/internal/topology"
)

// ExtrasModern compares how much topology-aware mapping is worth across
// machine families — the paper's motivation in reverse. Torus and mesh
// machines reward mapping heavily; low-diameter hypercubes, fat-trees,
// and dragonflies leave little on the table.
func ExtrasModern(quick bool) (*Table, error) {
	g := taskgraph.Mesh2D(6, 6, 1e5) // 36 tasks everywhere
	type machine struct {
		id   float64
		topo topology.Topology
	}
	// All machines sized exactly 36 nodes.
	torus, err := topology.NewTorus(6, 6)
	if err != nil {
		return nil, err
	}
	mesh, err := topology.NewMesh(6, 6)
	if err != nil {
		return nil, err
	}
	df, err := topology.NewDragonfly(4, 2) // 36 routers: g=9, a=4
	if err != nil {
		return nil, err
	}
	machines := []machine{
		{1, torus},
		{2, mesh},
		{3, df},
	}
	t := &Table{
		ID:      "extras-modern",
		Title:   "value of mapping by machine family (36-node machines, 6x6 Jacobi)",
		Columns: []string{"machine", "diameter", "E[random]", "topolb", "random", "win"},
		Notes:   "machine column: 1=2D-torus 2=2D-mesh 3=dragonfly(a=4,h=2)",
	}
	for _, mc := range machines {
		mT, err := (core.TopoLB{}).Map(g, mc.topo)
		if err != nil {
			return nil, err
		}
		hT := core.HopsPerByte(g, mc.topo, mT)
		hR, err := randomHPB(g, mc.topo, 5)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []float64{
			mc.id,
			float64(topology.Diameter(mc.topo)),
			topology.MeanDistance(mc.topo),
			hT, hR, hR / hT,
		})
	}
	return t, nil
}

// ExtrasHier sweeps the per-level cost ratio of a 2-pod/4-rack/8-node
// hierarchical machine and compares the two-phase hier mapper against
// hierarchy-oblivious placers on composite hops/byte. At ratio 1 the
// hierarchy degenerates to "every cross-leaf byte costs the same" and
// flat mapping is competitive; as inter-level bandwidth gaps widen
// (ratio 10 ≈ the pod/rack/node gaps of real clusters) the exact-
// capacity level cuts pull ahead. Strategies see what topomapd would
// feed them: the pattern's coordinates (the stencil's lattice, the
// random-geometric generator's points) alongside the graph.
func ExtrasHier(quick bool) (*Table, error) {
	workloads := []string{"stencil9:80,48", "rgg:3840,8"}
	if quick {
		workloads = []string{"stencil9:40,24", "rgg:960,8"}
	}
	ratios := []float64{1, 3, 10}
	t := &Table{
		ID:      "extras-hier",
		Title:   "two-phase hier mapper vs flat placers across level-cost ratios (2-pod/4-rack/8-node, torus-2x4 leaves)",
		Columns: []string{"workload", "cost_ratio", "strategy", "hops_per_byte", "runtime_ms"},
		Notes: "workload column: 1=" + workloads[0] + " 2=" + workloads[1] +
			"; strategy column: 1=sfc 2=rcb-sfc 3=multilevel 4=hier; composite hops/byte under the swept metric",
	}
	for wi, pattern := range workloads {
		g, err := cliutil.ParsePattern(pattern, 1e5, 1)
		if err != nil {
			return nil, err
		}
		coords := cliutil.PatternCoords(pattern, 1)
		for _, r := range ratios {
			spec := fmt.Sprintf("pod:2@%g/rack:4@%g/node:8@%g:torus-2x4", r*r*r, r*r, r)
			h, err := hiertopo.Parse(spec)
			if err != nil {
				return nil, err
			}
			strategies := []core.Placer{
				core.SFC{Coords: coords},
				core.RCBSFC{Coords: coords},
				core.MultilevelMap{},
				core.HierMap{Coords: coords},
			}
			for si, s := range strategies {
				start := time.Now()
				pl, err := s.Place(g, h)
				if err != nil {
					return nil, err
				}
				t.Rows = append(t.Rows, []float64{
					float64(wi + 1),
					r,
					float64(si + 1),
					core.HopsPerByte(g, h, pl),
					float64(time.Since(start).Microseconds()) / 1e3,
				})
			}
		}
	}
	return t, nil
}
