package topomap_test

// One benchmark per table and figure of the paper's evaluation, plus the
// ablation studies from DESIGN.md and microbenchmarks of the mapping
// strategies themselves. Each experiment benchmark regenerates the
// corresponding table (quick configuration) and logs it; run
//
//	go test -bench=. -benchmem
//
// to reproduce every result, or `go run ./cmd/experiments` for the
// full-size sweeps.

import (
	"bytes"
	"fmt"
	"testing"

	topomap "repro"
	"repro/internal/core"
	"repro/internal/emulator"
	"repro/internal/experiments"
	"repro/internal/netsim"
	"repro/internal/partition"
	"repro/internal/taskgraph"
	"repro/internal/topology"
	"repro/internal/trace"
)

func benchExperiment(b *testing.B, id string, headline func(*experiments.Table) (string, float64)) {
	exp, ok := experiments.Find(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	var tbl *experiments.Table
	var err error
	for i := 0; i < b.N; i++ {
		tbl, err = exp.Run(true)
		if err != nil {
			b.Fatal(err)
		}
	}
	var buf bytes.Buffer
	tbl.Format(&buf)
	b.Log("\n" + buf.String())
	if headline != nil {
		name, v := headline(tbl)
		b.ReportMetric(v, name)
	}
}

// colIndex finds a column by name; -1 if absent.
func colIndex(t *experiments.Table, name string) int {
	for i, c := range t.Columns {
		if c == name {
			return i
		}
	}
	return -1
}

// lastRowRatio reports row[-1][a] / row[-1][b].
func lastRowRatio(a, c string) func(*experiments.Table) (string, float64) {
	return func(t *experiments.Table) (string, float64) {
		row := t.Rows[len(t.Rows)-1]
		return "ratio", row[colIndex(t, a)] / row[colIndex(t, c)]
	}
}

// BenchmarkTable1 regenerates Table 1 (3D Jacobi, random vs optimal
// mapping on an (8,8,8) mesh; ratio = random/optimal at the largest
// message size).
func BenchmarkTable1(b *testing.B) {
	benchExperiment(b, "table1", lastRowRatio("random_ms", "optimal_ms"))
}

// BenchmarkFig1 regenerates Figure 1 (2D-mesh onto 2D-torus hops/byte;
// the headline is TopoLB's hops/byte at the largest p — the paper finds
// the optimal 1.0).
func BenchmarkFig1(b *testing.B) {
	benchExperiment(b, "fig1", func(t *experiments.Table) (string, float64) {
		return "topolb_hpb", t.Rows[len(t.Rows)-1][colIndex(t, "topolb")]
	})
}

// BenchmarkFig2 regenerates Figure 2 (zoom: TopoLB vs TopoCentLB).
func BenchmarkFig2(b *testing.B) {
	benchExperiment(b, "fig2", lastRowRatio("topocentlb", "topolb"))
}

// BenchmarkFig3 regenerates Figure 3 (2D-mesh onto 3D-torus).
func BenchmarkFig3(b *testing.B) {
	benchExperiment(b, "fig3", func(t *experiments.Table) (string, float64) {
		return "topolb_hpb", t.Rows[len(t.Rows)-1][colIndex(t, "topolb")]
	})
}

// BenchmarkFig4 regenerates Figure 4 (zoom of Figure 3; at p=64 the
// optimal 1.0 is attainable).
func BenchmarkFig4(b *testing.B) {
	benchExperiment(b, "fig4", func(t *experiments.Table) (string, float64) {
		return "topolb_p64", t.Rows[0][colIndex(t, "topolb")]
	})
}

// BenchmarkFig5 regenerates Figure 5 (LeanMD onto 2D tori; headline is
// TopoLB's reduction vs random at the largest p — paper: ~34%).
func BenchmarkFig5(b *testing.B) {
	benchExperiment(b, "fig5", func(t *experiments.Table) (string, float64) {
		row := t.Rows[len(t.Rows)-1]
		return "reduction_%", 100 * (1 - row[colIndex(t, "topolb")]/row[colIndex(t, "random")])
	})
}

// BenchmarkFig6 regenerates Figure 6 (LeanMD onto 3D tori; paper: ~40%
// with refinement).
func BenchmarkFig6(b *testing.B) {
	benchExperiment(b, "fig6", func(t *experiments.Table) (string, float64) {
		row := t.Rows[len(t.Rows)-1]
		return "reduction_%", 100 * (1 - row[colIndex(t, "topolb+refine")]/row[colIndex(t, "random")])
	})
}

// BenchmarkFig7 regenerates Figure 7 (average message latency vs
// bandwidth; headline is random/TopoLB latency at the lowest bandwidth).
func BenchmarkFig7(b *testing.B) {
	benchExperiment(b, "fig7", func(t *experiments.Table) (string, float64) {
		row := t.Rows[0]
		return "congested_ratio", row[colIndex(t, "random")] / row[colIndex(t, "topolb")]
	})
}

// BenchmarkFig8 regenerates Figure 8 (uncongested zoom of Figure 7).
func BenchmarkFig8(b *testing.B) {
	benchExperiment(b, "fig8", func(t *experiments.Table) (string, float64) {
		row := t.Rows[len(t.Rows)-1]
		return "uncongested_ratio", row[colIndex(t, "random")] / row[colIndex(t, "topolb")]
	})
}

// BenchmarkFig9 regenerates Figure 9 (completion time vs bandwidth;
// paper: random can exceed 2× TopoLB at low bandwidth).
func BenchmarkFig9(b *testing.B) {
	benchExperiment(b, "fig9", func(t *experiments.Table) (string, float64) {
		row := t.Rows[0]
		return "congested_ratio", row[colIndex(t, "random")] / row[colIndex(t, "topolb")]
	})
}

// BenchmarkFig10 regenerates Figure 10 (BlueGene 3D-torus time vs p).
func BenchmarkFig10(b *testing.B) {
	benchExperiment(b, "fig10", lastRowRatio("random_s", "topolb_s"))
}

// BenchmarkFig11 regenerates Figure 11 (BlueGene 3D-mesh time vs p).
func BenchmarkFig11(b *testing.B) {
	benchExperiment(b, "fig11", lastRowRatio("random_s", "topolb_s"))
}

// Ablation benchmarks for the design choices DESIGN.md calls out.

func BenchmarkAblationEstimation(b *testing.B) { benchExperiment(b, "ablation-estimation", nil) }
func BenchmarkAblationSelection(b *testing.B)  { benchExperiment(b, "ablation-selection", nil) }
func BenchmarkAblationRefine(b *testing.B)     { benchExperiment(b, "ablation-refine", nil) }
func BenchmarkAblationDistance(b *testing.B)   { benchExperiment(b, "ablation-distance", nil) }
func BenchmarkAblationPartition(b *testing.B)  { benchExperiment(b, "ablation-partition", nil) }

// Microbenchmarks: strategy cost as the machine grows (the paper's §4.4
// complexity discussion — TopoLB ~O(p²) with constant-degree graphs,
// TopoCentLB O(p·|Et|)).

func benchStrategy(b *testing.B, s core.Strategy, p int) {
	rx := 1
	for rx*rx < p {
		rx++
	}
	benchStrategyOn(b, s, taskgraph.Mesh2D(rx, p/rx, 1e5), topology.MustTorus(rx, p/rx))
}

func benchStrategyOn(b *testing.B, s core.Strategy, g *taskgraph.Graph, to topology.Topology) {
	// Warm up once so the lazily built distance-matrix cache (when
	// enabled) is charged to setup, not to the steady state under test.
	if _, err := s.Map(g, to); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Map(g, to); err != nil {
			b.Fatal(err)
		}
	}
}

// benchNoMatrix runs fn with distance-matrix materialization disabled,
// measuring the virtual-Distance baseline the cache replaces.
func benchNoMatrix(b *testing.B, fn func(b *testing.B)) {
	prev := topology.SetDistanceMatrixCap(0)
	defer topology.SetDistanceMatrixCap(prev)
	fn(b)
}

func BenchmarkTopoLBMap(b *testing.B) {
	for _, p := range []int{64, 256, 512, 1024} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) { benchStrategy(b, core.TopoLB{}, p) })
	}
}

// BenchmarkTopoLBMapNoMatrix is BenchmarkTopoLBMap with the distance
// matrix disabled: every hot-loop distance goes through the Topology
// interface, as before the cache existed. The ratio to BenchmarkTopoLBMap
// is the matrix's contribution; run both with -cpu=1,4 to separate it
// from the fork-join contribution.
func BenchmarkTopoLBMapNoMatrix(b *testing.B) {
	benchNoMatrix(b, func(b *testing.B) {
		for _, p := range []int{64, 256, 512, 1024} {
			b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) { benchStrategy(b, core.TopoLB{}, p) })
		}
	})
}

func BenchmarkTopoLBFirstOrderMap(b *testing.B) {
	for _, p := range []int{64, 256, 1024} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			benchStrategy(b, core.TopoLB{Order: core.OrderFirst}, p)
		})
	}
}

func BenchmarkTopoLBThirdOrderMap(b *testing.B) {
	for _, p := range []int{64, 256} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			benchStrategy(b, core.TopoLB{Order: core.OrderThird}, p)
		})
	}
}

func BenchmarkTopoLBThirdOrderMapNoMatrix(b *testing.B) {
	benchNoMatrix(b, func(b *testing.B) {
		for _, p := range []int{64, 256} {
			b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
				benchStrategy(b, core.TopoLB{Order: core.OrderThird}, p)
			})
		}
	})
}

func BenchmarkTopoCentLBMap(b *testing.B) {
	for _, p := range []int{64, 256, 1024} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) { benchStrategy(b, core.TopoCentLB{}, p) })
	}
}

func BenchmarkHopBytes(b *testing.B) {
	g := taskgraph.Mesh2D(32, 32, 1e5)
	to := topology.MustTorus(32, 32)
	m, err := (core.Random{Seed: 1}).Map(g, to)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.HopBytes(g, to, m)
	}
}

func BenchmarkMultilevelPartition(b *testing.B) {
	g := taskgraph.LeanMD(64, 1e4, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (partition.Multilevel{Seed: 1}).Partition(g, 64); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTwoPhasePipeline(b *testing.B) {
	g := taskgraph.LeanMD(64, 1e4, 1)
	to := topology.MustTorus(8, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := topomap.MapTasks(g, to, nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func benchRefinePass(b *testing.B) {
	g := taskgraph.Mesh2D(16, 16, 1e5)
	to := topology.MustTorus(16, 16)
	m0, err := (core.Random{Seed: 1}).Map(g, to)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := m0.Clone()
		core.Refine(g, to, m, 1)
	}
}

func BenchmarkRefinePass(b *testing.B) { benchRefinePass(b) }

// TestRefinePassAllocs is BenchmarkRefinePass's allocation gate, which CI
// runs at GOMAXPROCS 2: one sweep allocates its copy of the mapping and
// its occupant table, nothing per candidate list. A fork put back into
// sweepCandidates costs a closure and goroutines per list — thousands per
// pass — and only shows where there is a second core to fork onto.
func TestRefinePassAllocs(t *testing.T) {
	g := taskgraph.Mesh2D(16, 16, 1e5)
	to := topology.MustTorus(16, 16)
	m0, err := (core.Random{Seed: 1}).Map(g, to)
	if err != nil {
		t.Fatal(err)
	}
	core.Refine(g, to, m0.Clone(), 1) // builds the cached distance matrix
	if allocs := testing.AllocsPerRun(10, func() { core.Refine(g, to, m0.Clone(), 1) }); allocs > 4 {
		t.Errorf("one Refine pass allocates %v objects, want <= 4", allocs)
	}
}

func BenchmarkRefinePassNoMatrix(b *testing.B) {
	benchNoMatrix(b, benchRefinePass)
}

// Extras benchmarks: the studies beyond the paper (related-work mappers,
// hierarchical hybrid, adaptive routing, flow control, modern machines).

func BenchmarkExtrasStrategies(b *testing.B) { benchExperiment(b, "extras-strategies", nil) }
func BenchmarkExtrasHybrid(b *testing.B)     { benchExperiment(b, "extras-hybrid", nil) }
func BenchmarkExtrasRouting(b *testing.B)    { benchExperiment(b, "extras-routing", nil) }
func BenchmarkExtrasScaling(b *testing.B)    { benchExperiment(b, "extras-scaling", nil) }
func BenchmarkExtrasModern(b *testing.B)     { benchExperiment(b, "extras-modern", nil) }
func BenchmarkExtrasBuffered(b *testing.B)   { benchExperiment(b, "extras-buffered", nil) }

// BenchmarkAnnealingMap measures the physical-optimization comparator's
// cost (the paper's argument against it for online load balancing).
func BenchmarkAnnealingMap(b *testing.B) {
	benchStrategy(b, topomap.Annealing{Seed: 1}, 64)
}

// BenchmarkHybridMap measures the hierarchical mapper at p=1024 (flat
// TopoLB at this size appears under BenchmarkTopoLBMap).
func BenchmarkHybridMap(b *testing.B) {
	benchStrategy(b, topomap.Hybrid{Block: []int{4, 4}, Seed: 1}, 1024)
}

// BenchmarkNetsimEvents measures raw simulator throughput: messages
// drained per second through a contended torus.
func BenchmarkNetsimEvents(b *testing.B) {
	to := topology.MustTorus(8, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng := &netsim.Engine{}
		net, err := netsim.NewNetwork(eng, netsim.Config{
			Topology: to, LinkBandwidth: 1e8, LinkLatency: 1e-7,
		})
		if err != nil {
			b.Fatal(err)
		}
		for a := 0; a < 64; a++ {
			for d := 1; d <= 4; d++ {
				net.Send(a, (a+d*7)%64, 4096, nil)
			}
		}
		eng.Run()
	}
}

// BenchmarkNetsimHotspotDense measures the packet-dense steady state the
// rewrite targets: 8K packets in flight on an 8x8 torus, engine and pools
// reused across runs (zero-alloc once warm).
func BenchmarkNetsimHotspotDense(b *testing.B) {
	eng := &netsim.Engine{}
	net, err := netsim.NewNetwork(eng, netsim.Config{
		Topology: topology.MustTorus(8, 8), LinkBandwidth: 1e8,
		LinkLatency: 1e-7, PacketSize: 256,
	})
	if err != nil {
		b.Fatal(err)
	}
	run := func() {
		eng.Reset()
		for a := 0; a < 64; a++ {
			for d := 1; d <= 8; d++ {
				net.Send(a, (a+d*7)%64, 4096, nil)
			}
		}
		eng.Run()
	}
	run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// BenchmarkNetsimBuffered measures credit-based flow control with the
// intrusive wait queues under hotspot load.
func BenchmarkNetsimBuffered(b *testing.B) {
	eng := &netsim.Engine{}
	net, err := netsim.NewNetwork(eng, netsim.Config{
		Topology: topology.MustTorus(8, 8), LinkBandwidth: 1e8,
		LinkLatency: 1e-7, PacketSize: 256, BufferPackets: 4,
	})
	if err != nil {
		b.Fatal(err)
	}
	run := func() {
		eng.Reset()
		for a := 0; a < 64; a++ {
			for d := 1; d <= 8; d++ {
				net.Send(a, (a+d*7)%64, 4096, nil)
			}
		}
		eng.Run()
	}
	run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// BenchmarkNetsimWormhole measures the flit-level wormhole mode under
// hotspot load: one event per flit per hop, worm records pooled, engine
// reused across runs (zero-alloc once warm).
func BenchmarkNetsimWormhole(b *testing.B) {
	eng := &netsim.Engine{}
	net, err := netsim.NewNetwork(eng, netsim.Config{
		Topology: topology.MustTorus(8, 8), LinkBandwidth: 1e8,
		LinkLatency: 1e-7, PacketSize: 1024,
		Mode: netsim.ModeWormhole, FlitSize: 64,
	})
	if err != nil {
		b.Fatal(err)
	}
	run := func() {
		eng.Reset()
		for a := 0; a < 64; a++ {
			for d := 1; d <= 8; d++ {
				net.Send(a, (a+d*7)%64, 4096, nil)
			}
		}
		eng.Run()
	}
	run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// BenchmarkNetsimSweep measures the parallel experiment sweep runner over
// the §5.3 scenario (three mappings × three bandwidths).
func BenchmarkNetsimSweep(b *testing.B) {
	g := taskgraph.Mesh2D(8, 8, 4096)
	to := topology.MustTorus(4, 4, 4)
	prog, err := trace.FromTaskGraph(g, 30, 20e-6)
	if err != nil {
		b.Fatal(err)
	}
	var jobs []experiments.SimJob
	for _, strat := range []core.Strategy{core.Random{Seed: 1}, core.TopoLB{}, core.TopoCentLB{}} {
		m, err := strat.Map(g, to)
		if err != nil {
			b.Fatal(err)
		}
		for _, bw := range []float64{1e8, 3e8, 8e8} {
			jobs = append(jobs, experiments.SimJob{Prog: prog, Mapping: m, Cfg: netsim.Config{
				Topology: to, LinkBandwidth: bw, LinkLatency: 1e-7, PacketSize: 1024,
			}})
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunSims(jobs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceReplay measures end-to-end dependency-honoring replay.
func BenchmarkTraceReplay(b *testing.B) {
	g := taskgraph.Mesh2D(8, 8, 4096)
	to := topology.MustTorus(4, 4, 4)
	prog, err := trace.FromTaskGraph(g, 50, 20e-6)
	if err != nil {
		b.Fatal(err)
	}
	m, err := (core.TopoLB{}).Map(g, to)
	if err != nil {
		b.Fatal(err)
	}
	cfg := netsim.Config{Topology: to, LinkBandwidth: 2e8, LinkLatency: 1e-7, PacketSize: 1024}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := trace.Replay(prog, m, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEmulatorIteration measures the contention emulator's per-run
// cost at Table 1 scale.
func BenchmarkEmulatorIteration(b *testing.B) {
	g := taskgraph.Mesh3D(8, 8, 8, 1e5)
	to := topology.MustMesh(8, 8, 8)
	machine := emulator.DefaultMachine(to)
	m, err := (core.Random{Seed: 1}).Map(g, to)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := machine.RunIterative(g, m, 200, 50e-6); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTotalDistances measures the parallel distance precomputation
// TopoLB depends on.
func BenchmarkTotalDistances(b *testing.B) {
	to := topology.MustTorus(64, 64) // 4096 nodes: parallel path
	out := make([]float64, to.Nodes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		topology.TotalDistances(to, out)
	}
}
