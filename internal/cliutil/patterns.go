package cliutil

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/taskgraph"
)

// PatternArg is one integer argument of a pattern spec and the values it
// may take.
type PatternArg struct {
	// Name is the argument as usage texts spell it.
	Name string
	// Min is the smallest value the generator accepts.
	Min int
	// Max is the largest; 0 leaves the argument to the task cap.
	Max int
	// NotTasks keeps an argument that does not multiply the task count
	// (rgg's average degree, random's edge count) out of the task cap.
	NotTasks bool
	// unit names what a NotTasks argument counts, for its bound's error.
	unit string
}

// PatternRow is everything the repository records about one task-graph
// pattern. The tools' -pattern and -workload vocabulary, topomapd's
// graph.pattern field, their help texts and the row tests all read
// patternTable; a new pattern is one new row. A spec outside a row's
// bounds is an error before any generator runs — the generators
// themselves panic on them, for programmers calling them directly.
type PatternRow struct {
	// Kind is the wire name: a spec is "kind:A1,A2,...".
	Kind string
	Args []PatternArg
	// Build generates the graph: msg is the per-edge bytes, seed drives a
	// randomized generator.
	Build func(a []int, msg float64, seed int64) *taskgraph.Graph
	// Coords returns one position per task for the coordinate-consuming
	// strategies (sfc, rcb-sfc, RCB partitioning), numbered as Build
	// numbers the tasks. nil marks a pattern without meaningful geometry:
	// the strategies fall back to their graph-BFS order.
	Coords func(a []int, seed int64) [][]float64
}

// maxPatternTasks caps the product of a spec's task-counting arguments.
const maxPatternTasks = 1 << 22

// maxPatternEdges caps random's edge count: the edges of the largest
// stencil9 the task cap admits, 4 a task.
const maxPatternEdges = 1 << 24

// extents are the arguments of a grid pattern: each at least least.
func extents(least int, names ...string) []PatternArg {
	args := make([]PatternArg, len(names))
	for i, n := range names {
		args[i] = PatternArg{Name: n, Min: least}
	}
	return args
}

// lattice is the Coords of a grid pattern: the cell each task is.
func lattice(a []int, _ int64) [][]float64 { return taskgraph.GridCoords(a...) }

// patternTable order is the order of PatternNames.
var patternTable = []PatternRow{
	{Kind: "mesh2d", Args: extents(1, "RX", "RY"), Coords: lattice,
		Build: func(a []int, msg float64, _ int64) *taskgraph.Graph { return taskgraph.Mesh2D(a[0], a[1], msg) }},
	{Kind: "mesh3d", Args: extents(1, "RX", "RY", "RZ"), Coords: lattice,
		Build: func(a []int, msg float64, _ int64) *taskgraph.Graph { return taskgraph.Mesh3D(a[0], a[1], a[2], msg) }},
	{Kind: "ring", Args: extents(3, "N"), Coords: lattice,
		Build: func(a []int, msg float64, _ int64) *taskgraph.Graph { return taskgraph.Ring(a[0], msg) }},
	{Kind: "alltoall", Args: extents(2, "N"),
		Build: func(a []int, msg float64, _ int64) *taskgraph.Graph { return taskgraph.AllToAll(a[0], msg) }},
	{Kind: "torus2d", Args: extents(3, "RX", "RY"), Coords: lattice,
		Build: func(a []int, msg float64, _ int64) *taskgraph.Graph { return taskgraph.Torus2D(a[0], a[1], msg) }},
	// The 3D cell grid plus P integrators.
	{Kind: "leanmd", Args: extents(1, "P"),
		Build:  func(a []int, msg float64, seed int64) *taskgraph.Graph { return taskgraph.LeanMD(a[0], msg, seed) },
		Coords: func(a []int, _ int64) [][]float64 { return taskgraph.LeanMDCoords(a[0]) }},
	{Kind: "random", Args: []PatternArg{{Name: "N", Min: 3}, {Name: "M", Min: 1, Max: maxPatternEdges, NotTasks: true, unit: "edges"}},
		Build: func(a []int, msg float64, seed int64) *taskgraph.Graph {
			return taskgraph.Random(a[0], a[1], msg/2, msg, seed)
		}},
	// The cell-bucketed random geometric graph with target average degree
	// DEG, cheap enough for million-task instances; its coordinates are the
	// exact points the generator connected for the same seed.
	{Kind: "rgg", Args: []PatternArg{{Name: "N", Min: 2}, {Name: "DEG", Min: 1, NotTasks: true}},
		Build: func(a []int, msg float64, seed int64) *taskgraph.Graph {
			return taskgraph.RandomGeometricDeg(a[0], a[1], msg, seed)
		},
		Coords: func(a []int, seed int64) [][]float64 { return taskgraph.RandomGeometricCoords(a[0], seed) }},
	{Kind: "stencil9", Args: extents(1, "RX", "RY"), Coords: lattice,
		Build: func(a []int, msg float64, _ int64) *taskgraph.Graph { return taskgraph.Stencil9(a[0], a[1], msg) }},
	{Kind: "transpose", Args: extents(2, "N"),
		Build: func(a []int, msg float64, _ int64) *taskgraph.Graph { return taskgraph.Transpose(a[0], msg) }},
	{Kind: "bintree", Args: extents(1, "N"),
		Build: func(a []int, msg float64, _ int64) *taskgraph.Graph { return taskgraph.BinaryTree(a[0], msg) }},
	{Kind: "butterfly", Args: []PatternArg{{Name: "STAGES", Min: 1, Max: 20}},
		Build: func(a []int, msg float64, _ int64) *taskgraph.Graph { return taskgraph.Butterfly(a[0], msg) }},
	{Kind: "wavefront", Args: extents(1, "RX", "RY"), Coords: lattice,
		Build: func(a []int, msg float64, _ int64) *taskgraph.Graph { return taskgraph.Wavefront(a[0], a[1], msg) }},
}

// Usage spells the row's spec form, "mesh2d:RX,RY".
func (r PatternRow) Usage() string {
	names := make([]string, len(r.Args))
	for i, a := range r.Args {
		names[i] = a.Name
	}
	return r.Kind + ":" + strings.Join(names, ",")
}

// PatternNames lists the spec forms ParsePattern accepts.
func PatternNames() []string {
	names := make([]string, len(patternTable))
	for i, r := range patternTable {
		names[i] = r.Usage()
	}
	return names
}

// findPattern resolves a spec to its row and arguments, checked against
// the row's bounds and the task cap.
func findPattern(spec string) (PatternRow, []int, error) {
	kind, args, err := splitSpec(spec)
	if err != nil {
		return PatternRow{}, nil, err
	}
	for _, r := range patternTable {
		if r.Kind != kind || len(r.Args) != len(args) {
			continue
		}
		tasks := 1
		for i, a := range r.Args {
			v := args[i]
			if v < a.Min {
				return r, nil, fmt.Errorf("cliutil: pattern extent %d must be >= %d", v, a.Min)
			}
			if a.Max > 0 && v > a.Max && a.unit != "" {
				return r, nil, fmt.Errorf("cliutil: pattern %s %d must be <= %d %s", a.Name, v, a.Max, a.unit)
			}
			if a.Max > 0 && v > a.Max {
				return r, nil, fmt.Errorf("cliutil: pattern extent %d must be <= %d", v, a.Max)
			}
			if a.NotTasks {
				continue
			}
			if tasks > maxPatternTasks/v {
				return r, nil, fmt.Errorf("cliutil: pattern %q too large (> 2^22 tasks)", spec)
			}
			tasks *= v
		}
		return r, args, nil
	}
	return PatternRow{}, nil, fmt.Errorf("cliutil: unknown pattern %q", spec)
}

// ParsePattern builds the task graph of a pattern spec (see PatternNames).
// msg sets the per-edge bytes; seed drives randomized generators.
func ParsePattern(spec string, msg float64, seed int64) (*taskgraph.Graph, error) {
	r, args, err := findPattern(spec)
	if err != nil {
		return nil, err
	}
	if msg < 0 || math.IsNaN(msg) {
		return nil, fmt.Errorf("cliutil: message bytes %g must be >= 0", msg)
	}
	return r.Build(args, msg, seed), nil
}

// PatternCoords returns the task positions of a pattern spec, or nil for
// a pattern without geometry (see PatternRow.Coords). Invalid specs also
// return nil; ParsePattern is the place that reports them.
func PatternCoords(spec string, seed int64) [][]float64 {
	r, args, err := findPattern(spec)
	if err != nil || r.Coords == nil {
		return nil
	}
	return r.Coords(args, seed)
}
