package experiments

import (
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/partition"
	"repro/internal/taskgraph"
	"repro/internal/topology"
)

// AblationRegistry lists the ablation studies for the design choices
// DESIGN.md calls out. They are not paper figures; they justify the
// defaults the paper (and this library) picked.
func AblationRegistry() []Experiment {
	return []Experiment{
		{"ablation-estimation", AblationEstimation},
		{"ablation-selection", AblationSelection},
		{"ablation-refine", AblationRefine},
		{"ablation-distance", AblationDistance},
		{"ablation-partition", AblationPartitioner},
	}
}

// AblationEstimation compares TopoLB's three estimation orders (§4.3) on
// quality and running time: the paper argues second order is the sweet
// spot — near-third-order quality at near-first-order cost.
func AblationEstimation(quick bool) (*Table, error) {
	sizes := []int{64, 256}
	if !quick {
		sizes = append(sizes, 576, 1024)
	}
	t := &Table{
		ID:      "ablation-estimation",
		Title:   "TopoLB estimation order: hops/byte and runtime (2D-mesh onto 2D-torus)",
		Columns: []string{"p", "hpb_o1", "hpb_o2", "hpb_o3", "ms_o1", "ms_o2", "ms_o3"},
	}
	for _, p := range sizes {
		rx, ry := factor2(p)
		g := taskgraph.Mesh2D(rx, ry, 1e5)
		torus := topology.MustTorus(factor2(p))
		row := []float64{float64(p)}
		var times []float64
		for _, o := range []core.Order{core.OrderFirst, core.OrderSecond, core.OrderThird} {
			// One cold call warms the caches and the allocator; the
			// column is the fastest of three timed calls after it.
			lb := core.TopoLB{Order: o}
			m, err := lb.Map(g, torus)
			if err != nil {
				return nil, err
			}
			best := math.Inf(1)
			for k := 0; k < 3; k++ {
				start := time.Now()
				if _, err := lb.Map(g, torus); err != nil {
					return nil, err
				}
				best = min(best, float64(time.Since(start).Microseconds())/1e3)
			}
			times = append(times, best)
			row = append(row, core.HopsPerByte(g, torus, m))
		}
		row = append(row, times...)
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// AblationSelection isolates TopoLB's task-selection rule (max criticality
// gain FAvg−FMin) against TopoCentLB's simpler max-communication rule at
// matched estimation cost.
func AblationSelection(quick bool) (*Table, error) {
	sizes := []int{64, 256}
	if !quick {
		sizes = append(sizes, 1024, 2304)
	}
	t := &Table{
		ID:      "ablation-selection",
		Title:   "task selection rule: criticality gain (TopoLB) vs max-communication (TopoCentLB)",
		Columns: []string{"p", "criticality", "maxcomm"},
		Notes:   "hops/byte, 2D-mesh onto 2D-torus",
	}
	for _, p := range sizes {
		rx, ry := factor2(p)
		g := taskgraph.Mesh2D(rx, ry, 1e5)
		torus := topology.MustTorus(factor2(p))
		mT, err := (core.TopoLB{}).Map(g, torus)
		if err != nil {
			return nil, err
		}
		mC, err := (core.TopoCentLB{}).Map(g, torus)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []float64{float64(p),
			core.HopsPerByte(g, torus, mT), core.HopsPerByte(g, torus, mC)})
	}
	return t, nil
}

// AblationRefine sweeps RefineTopoLB pass counts over random and TopoLB
// starting points.
func AblationRefine(quick bool) (*Table, error) {
	p := 256
	if !quick {
		p = 1024
	}
	g := taskgraph.LeanMD(p, 1e4, 1)
	pr, err := (partition.Multilevel{Seed: 1}).Partition(g, p)
	if err != nil {
		return nil, err
	}
	q, err := partition.Quotient(g, pr)
	if err != nil {
		return nil, err
	}
	torus := topology.MustTorus(factor2(p))
	t := &Table{
		ID:      "ablation-refine",
		Title:   "RefineTopoLB passes: hops/byte from random and TopoLB starts (LeanMD quotient)",
		Columns: []string{"passes", "from_random", "from_topolb"},
	}
	mR0, err := (core.Random{Seed: 1}).Map(q, torus)
	if err != nil {
		return nil, err
	}
	mT0, err := (core.TopoLB{}).Map(q, torus)
	if err != nil {
		return nil, err
	}
	for _, passes := range []int{0, 1, 2, 4, 8} {
		mR := mR0.Clone()
		mT := mT0.Clone()
		if passes > 0 {
			core.Refine(q, torus, mR, passes)
			core.Refine(q, torus, mT, passes)
		}
		t.Rows = append(t.Rows, []float64{float64(passes),
			core.HopsPerByte(q, torus, mR), core.HopsPerByte(q, torus, mT)})
	}
	return t, nil
}

// AblationDistance compares TopoLB running time with closed-form torus
// distances against generic BFS distances on the identical machine graph.
func AblationDistance(quick bool) (*Table, error) {
	sizes := []int{64, 256}
	if !quick {
		sizes = append(sizes, 1024)
	}
	t := &Table{
		ID:      "ablation-distance",
		Title:   "distance oracle: closed-form torus vs generic BFS graph (TopoLB runtime)",
		Columns: []string{"p", "closed_ms", "bfs_ms", "hpb_closed", "hpb_bfs"},
	}
	for _, p := range sizes {
		rx, ry := factor2(p)
		g := taskgraph.Mesh2D(rx, ry, 1e5)
		torus := topology.MustTorus(factor2(p))
		bfs := topology.FromTopology(torus)
		start := time.Now()
		m1, err := (core.TopoLB{}).Map(g, torus)
		if err != nil {
			return nil, err
		}
		closedMs := float64(time.Since(start).Microseconds()) / 1e3
		start = time.Now()
		m2, err := (core.TopoLB{}).Map(g, bfs)
		if err != nil {
			return nil, err
		}
		bfsMs := float64(time.Since(start).Microseconds()) / 1e3
		t.Rows = append(t.Rows, []float64{float64(p), closedMs, bfsMs,
			core.HopsPerByte(g, torus, m1), core.HopsPerByte(g, bfs, m2)})
	}
	return t, nil
}

// AblationPartitioner compares phase-one partitioners feeding TopoLB:
// communication-aware multilevel vs load-only greedy.
func AblationPartitioner(quick bool) (*Table, error) {
	sizes := []int{64}
	if !quick {
		sizes = append(sizes, 256, 512)
	}
	t := &Table{
		ID:      "ablation-partition",
		Title:   "phase-one partitioner before TopoLB on LeanMD: multilevel vs greedy vs RCB",
		Columns: []string{"p", "cut_ml", "cut_greedy", "cut_rcb", "hpb_ml", "hpb_greedy", "hpb_rcb"},
		Notes:   "cut in MB; hops/byte on the respective quotient graphs",
	}
	for _, p := range sizes {
		g := taskgraph.LeanMD(p, 1e4, 1)
		torus := topology.MustTorus(factor2(p))
		row := []float64{float64(p)}
		var hpbs []float64
		for _, part := range []partition.Partitioner{
			partition.Multilevel{Seed: 1},
			partition.Greedy{},
			partition.RCB{Coords: taskgraph.LeanMDCoords(p)},
		} {
			res, err := core.MapQuotient(g, torus, part, core.TopoLB{})
			if err != nil {
				return nil, err
			}
			row = append(row, res.EdgeCut/1e6)
			hpbs = append(hpbs, res.HopsPerByte)
		}
		row = append(row, hpbs...)
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}
