package experiments

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/partition"
	"repro/internal/stats"
	"repro/internal/taskgraph"
	"repro/internal/topology"
	"repro/internal/trace"
)

// frontCell is one workload of the front table: a pattern on a machine
// the simulator can route. A pattern with more tasks than processors is
// cut once into one group per processor by partition.Multilevel{Seed: 1},
// and every row maps the same quotient graph.
type frontCell struct{ pattern, machine string }

// frontCells are ordered by machine size; quick mode keeps the first
// frontQuick, the p = 64 cells. Each size has quotient cells last.
var frontCells = []frontCell{
	{"mesh2d:8,8", "torus:8,8"}, {"rgg:64,6", "torus:8,8"}, {"random:64,192", "hypercube:6"},
	{"mesh3d:4,4,4", "mesh:4,4,4"}, {"stencil9:32,32", "torus:8,8"}, {"rgg:1024,8", "hypercube:6"},
	{"mesh2d:16,16", "torus:16,16"}, {"rgg:256,8", "torus:16,16"}, {"stencil9:16,16", "mesh:16,16"},
	{"mesh3d:8,8,4", "torus:8,8,4"}, {"rgg:256,8", "hypercube:8"}, {"random:256,768", "hypercube:8"},
	{"mesh2d:32,32", "torus:32,32"}, {"rgg:1024,8", "torus:32,32"}, {"stencil9:32,32", "mesh:32,32"},
	{"random:1024,3072", "hypercube:10"}, {"mesh3d:16,8,8", "mesh:16,8,8"},
	{"stencil9:64,64", "torus:16,16"}, {"rgg:4096,8", "torus:16,16"}, {"rgg:4096,8", "hypercube:8"},
	{"mesh3d:16,16,16", "mesh:8,8,8"}, {"stencil9:128,128", "torus:32,32"},
}

// The front table's fixed settings: the quick grid's size, bytes per
// pattern edge, timed Map calls per row and the argument a "kind:ARG"
// row runs with. The replay's settings are in frontRows.
const (
	frontQuick    = 6
	frontMsgBytes = 1e4
	frontReps     = 5
	frontBlock    = "4x4"
	// frontRefinedAt is the refined topolb row's index in frontStrategies.
	frontRefinedAt = 3
)

// frontStrategies are the strategy table's rows for flat machines, in
// table order; a row with an argument is bound to frontBlock ("hybrid:4x4").
// The topolb row refined (core.RefineTopoLB, a job's "refine": true) is
// one more row, at frontRefinedAt: the place the table's former
// "topolb+refine" row held, so the strategy codes of the recorded fronts
// stand.
func frontStrategies() ([]cliutil.StrategyRow, error) {
	var rows []cliutil.StrategyRow
	for _, r := range cliutil.StrategyTable() {
		if r.Bind != nil {
			kind, _, _ := strings.Cut(r.Name, ":")
			var err error
			if r.New, err = r.Bind(frontBlock); err != nil {
				return nil, err
			}
			r.Name = kind + ":" + frontBlock
		}
		if !r.NeedsHierarchy {
			rows = append(rows, r)
		}
	}
	base := rows[slices.IndexFunc(rows, func(r cliutil.StrategyRow) bool { return r.Name == "topolb" })].New
	refined := cliutil.StrategyRow{Name: "topolb+refine", New: func(seed int64, c [][]float64) core.Strategy {
		return core.RefineTopoLB{Base: base(seed, c)}
	}}
	return slices.Insert(rows, frontRefinedAt, refined), nil
}

// frontGraph builds the graph every row of cell c maps, the machine, and
// the coordinates the rows get (nil for a quotient, whose groups have no
// position: sfc and rcb-sfc take their graph-BFS order there).
func frontGraph(c frontCell) (*taskgraph.Graph, topology.Router, [][]float64, error) {
	g, err := cliutil.ParsePattern(c.pattern, frontMsgBytes, 1)
	if err != nil {
		return nil, nil, nil, err
	}
	topo, err := cliutil.ParseTopology(c.machine)
	if err != nil || g.NumVertices() == topo.Nodes() {
		return g, topo, cliutil.PatternCoords(c.pattern, 1), err
	}
	pr, err := partition.Multilevel{Seed: 1}.Partition(g, topo.Nodes())
	if err != nil {
		return nil, nil, nil, err
	}
	q, err := partition.Quotient(g, pr)
	return q, topo, nil, err
}

// frontRows maps cell c with every strategy whose Map accepts it. A row
// reads: strategy (its place in strategies, from 1), hops/byte, max
// routed link bytes, simulated completion µs, median map ms.
func frontRows(c frontCell, strategies []cliutil.StrategyRow, reps int) ([][]float64, error) {
	g, topo, coords, err := frontGraph(c)
	if err != nil {
		return nil, err
	}
	// 2 iterations of 20 µs compute on 2e8 B/s links, 100 ns hops, 1 KB packets.
	prog, err := trace.FromTaskGraph(g, 2, 20e-6)
	if err != nil {
		return nil, err
	}
	cfg := netsim.Config{Topology: topo, LinkBandwidth: 2e8, LinkLatency: 100e-9, PacketSize: 1024}
	var rows [][]float64
	times := make([]float64, reps)
nextStrategy:
	for i, s := range strategies {
		var m core.Mapping
		for k := range times {
			start := time.Now()
			if m, err = s.New(1, coords).Map(g, topo); err != nil {
				continue nextStrategy
			}
			times[k] = float64(time.Since(start).Microseconds()) / 1e3
		}
		rep, err := metrics.Evaluate(g, topo, m)
		if err != nil {
			return nil, err
		}
		res, err := trace.Replay(prog, m, cfg)
		if err != nil {
			return nil, err
		}
		rows = append(rows, []float64{float64(i + 1), rep.HopsPerByte, rep.MaxLinkBytes,
			res.CompletionTime * 1e6, stats.Summarize(times).Median})
	}
	return rows, nil
}

// eachFrontCell runs the grid (quick: its first frontQuick cells),
// handing f each cell's number (from 1) and rows, and returns the notes
// naming the cells and the strategies.
func eachFrontCell(quick bool, reps int, f func(cell int, rows [][]float64)) (string, error) {
	strategies, err := frontStrategies()
	if err != nil {
		return "", err
	}
	cells := frontCells
	if quick {
		cells = cells[:frontQuick]
	}
	var notes strings.Builder
	notes.WriteString("cell column:")
	for i, c := range cells {
		fmt.Fprintf(&notes, " %d=%s/%s", i+1, c.pattern, c.machine)
		rows, err := frontRows(c, strategies, reps)
		if err != nil {
			return "", err
		}
		f(i+1, rows)
	}
	notes.WriteString("\n   strategy column:")
	for i, s := range strategies {
		fmt.Fprintf(&notes, " %d=%s", i+1, s.Name)
	}
	return notes.String(), nil
}

// ExtrasFront ranks every strategy row for flat machines by hop-bytes,
// the most loaded routed link and simulated completion time (contention
// and compute included), next to its median map time, over patterns on
// tori, meshes and hypercubes from p = 64 to 1024: the evidence for which
// rows the strategy table keeps. A newly registered row is a new row here.
func ExtrasFront(quick bool) (*Table, error) {
	t := &Table{
		ID:      "extras-front",
		Title:   "strategy front: hop-bytes, routed link load, simulated time and map time per cell",
		Columns: []string{"cell", "strategy", "hops_per_byte", "max_link_bytes", "sim_us", "map_ms"},
	}
	var err error
	t.Notes, err = eachFrontCell(quick, frontReps, func(cell int, rows [][]float64) {
		for _, r := range rows {
			t.Rows = append(t.Rows, append([]float64{float64(cell)}, r...))
		}
	})
	return t, err
}

// ExtrasFrontTau asks which static measure orders each extras-front
// cell's rows the way the simulator does: Kendall's τ-b of hops/byte and
// of max routed link load against simulated time.
func ExtrasFrontTau(quick bool) (*Table, error) {
	t := &Table{
		ID:      "extras-front-tau",
		Title:   "Kendall tau-b against simulated time over the extras-front rows, per cell",
		Columns: []string{"cell", "rows", "tau_hops_sim", "tau_link_sim"},
	}
	var err error
	t.Notes, err = eachFrontCell(quick, 1, func(cell int, rows [][]float64) {
		hpb, link, sim := make([]float64, len(rows)), make([]float64, len(rows)), make([]float64, len(rows))
		for i, r := range rows {
			hpb[i], link[i], sim[i] = r[1], r[2], r[3]
		}
		t.Rows = append(t.Rows, []float64{float64(cell), float64(len(rows)),
			stats.KendallTauB(hpb, sim), stats.KendallTauB(link, sim)})
	})
	return t, err
}
