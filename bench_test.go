package topomap_test

// BenchmarkExperiments regenerates every table and figure of the paper's
// evaluation, the ablation studies and the extras (the quick
// configuration of each id in experiments.All), one sub-benchmark per
// id, and logs the table; run
//
//	go test -run '^$' -bench 'Experiments/fig7' -benchmem .
//
// for one, or `go run ./cmd/experiments` for the full-size sweeps. The
// kernel-level micro-benchmarks are the rows of internal/benchtab (what
// cmd/benchjson records); BenchmarkMicro drives every one of them, so
// each can be run and profiled by name:
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
	"repro/internal/hiertopo"
	"repro/internal/netsim"
	"repro/internal/partition"
	"repro/internal/taskgraph"
	"repro/internal/topology"
	"repro/internal/trace"
)

// BenchmarkExperiments runs every experiment id as a sub-benchmark.
func BenchmarkExperiments(b *testing.B) {
	for _, exp := range experiments.All() {
		b.Run(exp.ID, func(b *testing.B) { benchExperiment(b, exp) })
	}
}

func benchExperiment(b *testing.B, exp experiments.Experiment) {
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
	if headline := headlines[exp.ID]; headline != nil {
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

// lastRowTopoLB reports TopoLB's hops/byte at the largest p.
func lastRowTopoLB(t *experiments.Table) (string, float64) {
	return "topolb_hpb", t.Rows[len(t.Rows)-1][colIndex(t, "topolb")]
}

// reduction reports col's reduction against random at the largest p, in %.
func reduction(col string) func(*experiments.Table) (string, float64) {
	return func(t *experiments.Table) (string, float64) {
		row := t.Rows[len(t.Rows)-1]
		return "reduction_%", 100 * (1 - row[colIndex(t, col)]/row[colIndex(t, "random")])
	}
}

// randomOverTopoLB reports random/TopoLB in the first row, or the last.
func randomOverTopoLB(name string, last bool) func(*experiments.Table) (string, float64) {
	return func(t *experiments.Table) (string, float64) {
		row := t.Rows[0]
		if last {
			row = t.Rows[len(t.Rows)-1]
		}
		return name, row[colIndex(t, "random")] / row[colIndex(t, "topolb")]
	}
}

// headlines are the metrics BenchmarkExperiments reports beside a paper
// experiment's time, keyed by id; the ablations and extras report none.
var headlines = map[string]func(*experiments.Table) (string, float64){
	// Table 1: random/optimal at the largest message size.
	"table1": lastRowRatio("random_ms", "optimal_ms"),
	// Figs 1 and 3: the paper finds TopoLB optimal (1.0) on 2D meshes.
	"fig1": lastRowTopoLB,
	"fig2": lastRowRatio("topocentlb", "topolb"),
	"fig3": lastRowTopoLB,
	// Fig 4: at p = 64 the optimal 1.0 is attainable.
	"fig4": func(t *experiments.Table) (string, float64) {
		return "topolb_p64", t.Rows[0][colIndex(t, "topolb")]
	},
	// Figs 5 and 6: the paper reports ~34 % for TopoLB, ~40 % refined.
	"fig5": reduction("topolb"),
	"fig6": reduction("topolb+refine"),
	// Figs 7 and 9 at the lowest bandwidth (paper: random can exceed 2×
	// TopoLB's completion time there), Fig 8 at the highest.
	"fig7": randomOverTopoLB("congested_ratio", false),
	"fig8": randomOverTopoLB("uncongested_ratio", true),
	"fig9": randomOverTopoLB("congested_ratio", false),
	// Figs 10 and 11: random/TopoLB on BlueGene tori and meshes at the
	// largest p.
	"fig10": lastRowRatio("random_s", "topolb_s"),
	"fig11": lastRowRatio("random_s", "topolb_s"),
}

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
// pass — and only shows where there is a second core to fork onto. The
// second case is the shape HierMap refines: four tasks per processor of
// a hierarchy, dealt round-robin.
func TestRefinePassAllocs(t *testing.T) {
	g := taskgraph.Mesh2D(16, 16, 1e5)
	to := topology.MustTorus(16, 16)
	m0, err := (core.Random{Seed: 1}).Map(g, to)
	if err != nil {
		t.Fatal(err)
	}
	h, err := hiertopo.Parse("pod:2/rack:2/node:4:mesh-2x2")
	if err != nil {
		t.Fatal(err)
	}
	surj := make(core.Mapping, g.NumVertices())
	for v := range surj {
		surj[v] = v % h.Nodes()
	}
	for _, tc := range []struct {
		topo topology.Topology
		m    core.Mapping
	}{{to, m0}, {h, surj}} {
		core.Refine(g, tc.topo, tc.m.Clone(), 1) // builds the caches a pass reads
		if allocs := testing.AllocsPerRun(10, func() { core.Refine(g, tc.topo, tc.m.Clone(), 1) }); allocs > 4 {
			t.Errorf("one Refine pass on %s allocates %v objects, want <= 4", tc.topo.Name(), allocs)
		}
	}
}

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
