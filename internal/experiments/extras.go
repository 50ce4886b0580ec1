package experiments

import (
	"time"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/hybrid"
	"repro/internal/netsim"
	"repro/internal/taskgraph"
	"repro/internal/topology"
	"repro/internal/trace"
)

// ExtrasRegistry lists the comparisons that go beyond the paper: the
// related-work baselines of §2, the hierarchical mapper the conclusion
// proposes, and adaptive routing in the network simulator.
func ExtrasRegistry() []Experiment {
	return []Experiment{
		{"extras-strategies", ExtrasStrategies},
		{"extras-hybrid", ExtrasHybrid},
		{"extras-routing", ExtrasRouting},
		{"extras-scaling", ExtrasScaling},
		{"extras-modern", ExtrasModern},
		{"extras-buffered", ExtrasBuffered},
		{"extras-wormhole", ExtrasWormhole},
		{"extras-sfc", ExtrasSFC},
		{"extras-hier", ExtrasHier},
		{"scale-multilevel", ExtrasScaleMultilevel},
	}
}

// ExtrasStrategies pits TopoLB against the related-work algorithms of §2
// — Bokhari's pairwise exchange, simulated annealing, a genetic
// algorithm, and snake (space-filling-curve) mapping — on hop-byte
// quality and running time. The physical-optimization methods approach
// heuristic quality at orders of magnitude more work, the paper's core
// argument for heuristics.
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
		Notes:   "strategy column: 1=TopoLB 2=TopoCentLB 3=Snake 4=Bokhari 5=Annealing 6=Genetic 7=Random",
	}
	strategies := []core.Strategy{
		core.TopoLB{},
		core.TopoCentLB{},
		baselines.Snake{TaskDims: []int{side, side}},
		baselines.Bokhari{Seed: 1},
		baselines.Annealing{Seed: 1},
		baselines.Genetic{Seed: 1},
		core.Random{Seed: 1},
	}
	for i, s := range strategies {
		start := time.Now()
		m, err := s.Map(g, torus)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []float64{
			float64(i + 1),
			core.HopsPerByte(g, torus, m),
			float64(time.Since(start).Microseconds()) / 1e3,
		})
	}
	return t, nil
}

// ExtrasWormhole re-runs the paper's core mapping comparison under the
// flit-level wormhole model: how much latency random placement costs
// versus TopoLB when contention comes from head-of-line blocking worms
// holding multiple links, not just per-link queueing. The packet rows
// give the store-and-forward baseline on the same workload.
func ExtrasWormhole(quick bool) (*Table, error) {
	iters := 200
	if quick {
		iters = 50
	}
	g := taskgraph.Mesh2D(8, 8, 4e3)
	torus := topology.MustTorus(4, 4, 4)
	prog, err := trace.FromTaskGraph(g, iters, 20e-6)
	if err != nil {
		return nil, err
	}
	mT, err := (core.TopoLB{}).Map(g, torus)
	if err != nil {
		return nil, err
	}
	mR, err := (core.Random{Seed: 1}).Map(g, torus)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "extras-wormhole",
		Title:   "packet vs wormhole contention model: avg message latency (us) at 100 MB/s",
		Columns: []string{"wormhole", "random", "topolb"},
		Notes:   "a good mapping is nearly model-independent; random placement's latency depends on the contention model",
	}
	for _, mode := range []netsim.Mode{netsim.ModePacket, netsim.ModeWormhole} {
		row := []float64{0}
		if mode == netsim.ModeWormhole {
			row[0] = 1
		}
		for _, m := range []core.Mapping{mR, mT} {
			res, err := trace.Replay(prog, m, netsim.Config{
				Topology:      torus,
				LinkBandwidth: 1e8,
				LinkLatency:   100e-9,
				PacketSize:    1024,
				Mode:          mode,
				FlitSize:      128,
			})
			if err != nil {
				return nil, err
			}
			row = append(row, res.Net.AvgLatency*1e6)
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

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

// ExtrasRouting measures how much of random placement's contention
// penalty adaptive minimal routing recovers in the network simulator —
// and how much of TopoLB's advantage survives smarter routing.
func ExtrasRouting(quick bool) (*Table, error) {
	iters := 200
	if quick {
		iters = 50
	}
	g := taskgraph.Mesh2D(8, 8, 4e3)
	torus := topology.MustTorus(4, 4, 4)
	prog, err := trace.FromTaskGraph(g, iters, 20e-6)
	if err != nil {
		return nil, err
	}
	mT, err := (core.TopoLB{}).Map(g, torus)
	if err != nil {
		return nil, err
	}
	mR, err := (core.Random{Seed: 1}).Map(g, torus)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "extras-routing",
		Title:   "deterministic vs adaptive routing: avg message latency (us) at 100 MB/s",
		Columns: []string{"adaptive", "random", "topolb"},
		Notes:   "adaptive routing spreads load over minimal paths; TopoLB's advantage persists",
	}
	for _, adaptive := range []bool{false, true} {
		row := []float64{0}
		if adaptive {
			row[0] = 1
		}
		for _, m := range []core.Mapping{mR, mT} {
			res, err := trace.Replay(prog, m, netsim.Config{
				Topology:      torus,
				LinkBandwidth: 1e8,
				LinkLatency:   100e-9,
				PacketSize:    1024,
				Adaptive:      adaptive,
			})
			if err != nil {
				return nil, err
			}
			row = append(row, res.Net.AvgLatency*1e6)
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}
