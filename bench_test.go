package topomap_test

// One benchmark per table and figure of the paper's evaluation, plus the
// ablation studies from DESIGN.md. Each experiment benchmark regenerates
// the corresponding table (quick configuration) and logs it; run
//
//	go test -bench=. -benchmem
//
// to reproduce every result, or `go run ./cmd/experiments` for the
// full-size sweeps. The kernel-level micro-benchmarks are the rows of
// internal/benchtab (what cmd/benchjson records); BenchmarkMicro drives
// every one of them, so each can be run and profiled by name:
//
//	go test -run '^$' -bench 'Micro/netsim/Hotspot' -benchmem -cpuprofile cpu.prof .

import (
	"bytes"
	"testing"

	topomap "repro"
	"repro/internal/benchtab"
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

// BenchmarkMicro runs every row of the benchjson table, reference sides
// included, as sub-benchmarks named suite/row[/reference].
func BenchmarkMicro(b *testing.B) {
	for _, row := range benchtab.Rows() {
		b.Run(row.Suite+"/"+row.Name, row.Run)
		if row.Ref != nil {
			b.Run(row.Suite+"/"+row.Name+"/"+row.RefName, row.Ref)
		}
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

// TestRefinePassAllocs is the mapping/Refine row's allocation gate, which CI
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

// Extras benchmarks: the studies beyond the paper (related-work mappers,
// hierarchical hybrid, adaptive routing, flow control, modern machines,
// the strategy front).

func BenchmarkExtrasStrategies(b *testing.B) { benchExperiment(b, "extras-strategies", nil) }
func BenchmarkExtrasHybrid(b *testing.B)     { benchExperiment(b, "extras-hybrid", nil) }
func BenchmarkExtrasRouting(b *testing.B)    { benchExperiment(b, "extras-routing", nil) }
func BenchmarkExtrasScaling(b *testing.B)    { benchExperiment(b, "extras-scaling", nil) }
func BenchmarkExtrasModern(b *testing.B)     { benchExperiment(b, "extras-modern", nil) }
func BenchmarkExtrasBuffered(b *testing.B)   { benchExperiment(b, "extras-buffered", nil) }
func BenchmarkExtrasFront(b *testing.B)      { benchExperiment(b, "extras-front", nil) }

// BenchmarkAnnealingMap measures the physical-optimization comparator's
// cost (the paper's argument against it for online load balancing).
func BenchmarkAnnealingMap(b *testing.B) {
	benchtab.MapBench(topomap.Annealing{Seed: 1}, 8, 8)(b)
}

// BenchmarkHybridMap measures the hierarchical mapper at p=1024 (flat
// TopoLB at this size is BenchmarkMicro/mapping/TopoLB/p=1024).
func BenchmarkHybridMap(b *testing.B) {
	benchtab.MapBench(topomap.Hybrid{Block: []int{4, 4}, Seed: 1}, 32, 32)(b)
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
