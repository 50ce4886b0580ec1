// Command topomap maps a task graph onto a network topology and reports
// hop-bytes metrics for one or more strategies.
//
// Usage:
//
//	topomap -topo torus:8,8 -pattern mesh2d:8,8 -msg 100000 \
//	        -strategy topolb,topocentlb,random -refine -metrics -draw
//	topomap -topo mesh:4,4,4 -graph app.json -partition multilevel
//
// The task graph comes either from a built-in pattern (-pattern) or from
// a JSON file written by the taskgraph package (-graph). When the graph
// has more tasks than the topology has processors, the two-phase pipeline
// partitions it first (-partition selects the partitioner). With -metrics
// the report adds dilation, Bokhari cardinality, and routed link loads;
// with -draw each bijective mapping is rendered as an ASCII grid.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	topomap "repro"
	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/taskgraph"
	"repro/internal/topology"
	"repro/internal/viz"
)

func main() {
	topoSpec := flag.String("topo", "torus:8,8", "topology: "+strings.Join(cliutil.TopologyNames(), " | "))
	patSpec := flag.String("pattern", "", "pattern: "+strings.Join(cliutil.PatternNames(), " | "))
	graphFile := flag.String("graph", "", "task graph JSON file (alternative to -pattern)")
	msg := flag.Float64("msg", 1e5, "message bytes per edge for built-in patterns")
	strategies := flag.String("strategy", "topolb,topocentlb,random",
		"comma-separated strategies: "+strings.Join(cliutil.StrategyNames(), " | "))
	refine := flag.Bool("refine", false, "apply RefineTopoLB after each strategy")
	draw := flag.Bool("draw", false, "render each bijective mapping as an ASCII grid")
	full := flag.Bool("metrics", false, "report dilation, cardinality, and routed link loads")
	partName := flag.String("partition", "multilevel", "partitioner when tasks > processors: multilevel | greedy")
	seed := flag.Int64("seed", 1, "seed for randomized components")
	jsonOut := flag.Bool("json", false, "emit JSON (mappings, reports, and runtime counters) instead of the table")
	flag.Parse()

	// ParseAnyTopology admits the routing-free machines too (fat-trees,
	// hierarchies); only the simulator needs per-link routes, and topomap
	// never simulates.
	topo, err := cliutil.ParseAnyTopology(*topoSpec)
	fatalIf(err)
	g, err := loadGraph(*patSpec, *graphFile, *msg, *seed)
	fatalIf(err)

	part, err := cliutil.ParsePartitioner(*partName, *seed)
	fatalIf(err)

	if !*jsonOut {
		fmt.Printf("topology: %s (%d processors, mean distance %.3f)\n",
			topo.Name(), topo.Nodes(), topology.MeanDistance(topo))
		fmt.Printf("taskgraph: %s (%d tasks, %d edges, %.3g bytes/iter)\n",
			g.Name(), g.NumVertices(), g.NumEdges(), g.TotalComm())
		fmt.Printf("E[random hops/byte] = %.3f\n\n", core.ExpectedRandomHopsPerByte(topo))
		header := fmt.Sprintf("%-22s  %12s  %12s  %10s", "strategy", "hop-bytes", "hops/byte", "imbalance")
		if *full {
			header += fmt.Sprintf("  %9s  %11s  %12s  %8s", "dilation", "cardinality", "maxLinkByte", "linkCV")
		}
		fmt.Println(header)
	}

	// jsonReport mirrors the table: one entry per strategy plus the
	// process-wide reuse counters (distance-matrix cache, engine pool).
	type jsonEntry struct {
		Strategy string          `json:"strategy"`
		Mapping  []int           `json:"mapping"`
		Report   *metrics.Report `json:"report"`
	}
	type jsonReport struct {
		Topology   string                 `json:"topology"`
		Processors int                    `json:"processors"`
		Graph      string                 `json:"graph"`
		Tasks      int                    `json:"tasks"`
		Results    []jsonEntry            `json:"results"`
		Counters   metrics.SystemCounters `json:"counters"`
	}
	report := jsonReport{
		Topology:   topo.Name(),
		Processors: topo.Nodes(),
		Graph:      g.Name(),
		Tasks:      g.NumVertices(),
	}

	strats, err := cliutil.ParseStrategies(*strategies, *seed)
	fatalIf(err)
	// Geometric strategies consume the pattern's coordinates when the
	// pattern has them; graph files carry no geometry, so those jobs use
	// the BFS fallback.
	var coords [][]float64
	if *patSpec != "" {
		coords = cliutil.PatternCoords(*patSpec, *seed)
	}
	for _, strat := range strats {
		strat = cliutil.WithCoords(strat, coords)
		if *refine {
			strat = core.RefineTopoLB{Base: strat}
		}
		var placement []int
		if g.NumVertices() == topo.Nodes() {
			m, err := strat.Map(g, topo)
			fatalIf(err)
			placement = m
		} else {
			res, err := topomap.MapTasks(g, topo, part, strat)
			fatalIf(err)
			placement = res.Placement
		}
		rep, err := metrics.Evaluate(g, topo, placement)
		fatalIf(err)
		if *jsonOut {
			report.Results = append(report.Results, jsonEntry{
				Strategy: strat.Name(), Mapping: placement, Report: rep,
			})
			continue
		}
		line := fmt.Sprintf("%-22s  %12.4g  %12.4f  %10.3f",
			strat.Name(), rep.HopBytes, rep.HopsPerByte, rep.Imbalance)
		if *full {
			line += fmt.Sprintf("  %9d  %11d  %12.4g  %8.3f",
				rep.MaxDilation, rep.Cardinality, rep.MaxLinkBytes, rep.LinkCV)
		}
		fmt.Println(line)
		if *draw && g.NumVertices() == topo.Nodes() {
			if co, ok := topo.(topology.Coordinated); ok {
				if grid, err := viz.RenderPlacement(co, placement); err == nil {
					fmt.Println(grid)
				}
			}
		}
	}
	if *jsonOut {
		report.Counters = metrics.Counters()
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		fatalIf(enc.Encode(report))
	}
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "topomap:", err)
		os.Exit(1)
	}
}

func loadGraph(pattern, file string, msg float64, seed int64) (*taskgraph.Graph, error) {
	if (pattern == "") == (file == "") {
		return nil, fmt.Errorf("exactly one of -pattern or -graph is required")
	}
	if file != "" {
		f, err := os.Open(file)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return taskgraph.ReadJSON(f)
	}
	return cliutil.ParsePattern(pattern, msg, seed)
}
