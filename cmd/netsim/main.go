// Command netsim replays an iterative application trace through the
// discrete-event network simulator under different mappings — the §5.3
// methodology (BigNetSim).
//
// Usage:
//
//	netsim -topo torus:4,4,4 -pattern mesh2d:8,8 -msg 4096 \
//	       -iters 2000 -bw 2e8 -strategy topolb,topocentlb,random
//
// A trace can also be generated once with -dump trace.gob and replayed
// later with -trace trace.gob.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/cliutil"
	"repro/internal/experiments"
	"repro/internal/netsim"
	"repro/internal/taskgraph"
	"repro/internal/trace"
)

func main() {
	topoSpec := flag.String("topo", "torus:4,4,4", "topology: "+strings.Join(cliutil.RouterNames(), " | "))
	patSpec := flag.String("pattern", "mesh2d:8,8", "pattern: "+strings.Join(cliutil.PatternNames(), " | "))
	msg := flag.Float64("msg", 4096, "message bytes per edge per iteration")
	iters := flag.Int("iters", 200, "iterations")
	compute := flag.Float64("compute", 20e-6, "seconds of compute per task per iteration")
	bw := flag.Float64("bw", 2e8, "link bandwidth, bytes/second")
	hop := flag.Float64("hop", 100e-9, "per-hop latency, seconds")
	packet := flag.Int("packet", 1024, "packet size in bytes (0 = whole messages)")
	mode := flag.String("mode", "packet", "contention model: packet | wormhole")
	flit := flag.Int("flit", 0, "wormhole flit size in bytes (0 = default)")
	flitBuf := flag.Int("flitbuf", 0, "wormhole per-(link,VC) flit buffer depth (0 = default)")
	strategies := flag.String("strategy", "topolb,topocentlb,random", "strategies to compare")
	seed := flag.Int64("seed", 1, "seed for random placement")
	dump := flag.String("dump", "", "write the generated trace to this gob file and exit")
	traceFile := flag.String("trace", "", "replay this trace file instead of generating one")
	flag.Parse()

	topo, err := cliutil.ParseTopology(*topoSpec)
	fatalIf(err)

	var prog *trace.Program
	var g *taskgraph.Graph
	// Geometric strategies read the pattern's coordinates; a replayed
	// trace carries no geometry, so its jobs use the BFS fallback.
	var coords [][]float64
	if *traceFile != "" {
		f, err := os.Open(*traceFile)
		fatalIf(err)
		prog, err = trace.ReadGob(f)
		closeErr := f.Close()
		fatalIf(err)
		fatalIf(closeErr)
		g = programGraph(prog)
	} else {
		g, err = cliutil.ParsePattern(*patSpec, *msg, *seed)
		fatalIf(err)
		coords = cliutil.PatternCoords(*patSpec, *seed)
		prog, err = trace.FromTaskGraph(g, *iters, *compute)
		fatalIf(err)
	}
	if *dump != "" {
		f, err := os.Create(*dump)
		fatalIf(err)
		fatalIf(prog.WriteGob(f))
		fatalIf(f.Close())
		fmt.Printf("wrote %s (%d tasks, %d iterations)\n", *dump, prog.NumTasks(), prog.Iterations)
		return
	}
	if prog.NumTasks() != topo.Nodes() {
		fatalIf(fmt.Errorf("%d tasks but %d processors", prog.NumTasks(), topo.Nodes()))
	}

	simMode, err := netsim.ParseMode(*mode)
	fatalIf(err)
	cfg := netsim.Config{Topology: topo, LinkBandwidth: *bw, LinkLatency: *hop, PacketSize: *packet,
		Mode: simMode, FlitSize: *flit, FlitBuffer: *flitBuf}
	fmt.Printf("%s, %d tasks, %d iterations, bw %.3g B/s, %s mode\n",
		topo.Name(), prog.NumTasks(), prog.Iterations, *bw, simMode)
	fmt.Printf("%-14s  %14s  %14s  %14s  %12s\n", "strategy", "completion(ms)", "avgLat(us)", "maxLat(us)", "maxLinkBusy")
	strats, err := cliutil.ParseStrategies(*strategies, *seed)
	fatalIf(err)
	jobs := make([]experiments.SimJob, len(strats))
	for i, strat := range strats {
		m, err := cliutil.WithCoords(strat, coords).Map(g, topo)
		fatalIf(err)
		jobs[i] = experiments.SimJob{Prog: prog, Mapping: m, Cfg: cfg}
	}
	// The replays are independent, so run them across GOMAXPROCS; results
	// come back in strategy order, so output is identical to the serial loop.
	results, err := experiments.RunSims(jobs)
	fatalIf(err)
	for i, strat := range strats {
		res := results[i]
		fmt.Printf("%-14s  %14.3f  %14.3f  %14.3f  %12.4g\n",
			strat.Name(), res.CompletionTime*1e3,
			res.Net.AvgLatency*1e6, res.Net.MaxLatency*1e6, res.Net.MaxLinkBusy)
	}
}

// programGraph reconstructs a task graph from a trace so strategies can
// map it.
func programGraph(p *trace.Program) *taskgraph.Graph {
	b := taskgraph.NewBuilder(p.NumTasks())
	for v := range p.Dest {
		for i, d := range p.Dest[v] {
			if int32(v) < d {
				b.AddEdge(v, int(d), p.Bytes[v][i])
			}
		}
	}
	return b.Build(p.Name)
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "netsim:", err)
		os.Exit(1)
	}
}
