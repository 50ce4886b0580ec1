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
	// Max is the largest; 0 leaves the argument to the caps on the
	// graph's size.
	Max int
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
	// Size gives the task and edge counts of the graph Build makes from
	// these arguments with positive bytes, without building it; a spec
	// above maxPatternTasks tasks or maxPatternEdges edges is refused on
	// them. The counts are exact for every row but the randomized ones,
	// which state their bound: random at most max(M, N) edges, rgg the
	// (N−1)(DEG+1)/2 its radius gives in expectation before the unit
	// square's border thins it. Counts saturate at sizeCap.
	Size func(a []int) (tasks, edges int)
	// Build generates the graph: msg is the per-edge bytes, seed drives a
	// randomized generator.
	Build func(a []int, msg float64, seed int64) *taskgraph.Graph
	// Coords returns one position per task for the coordinate-consuming
	// strategies (sfc, rcb-sfc, RCB partitioning), numbered as Build
	// numbers the tasks. nil marks a pattern without meaningful geometry:
	// the strategies fall back to their graph-BFS order.
	Coords func(a []int, seed int64) [][]float64
}

// maxPatternTasks caps a spec's task count.
const maxPatternTasks = 1 << 22

// maxPatternEdges caps a spec's edge count: the edges of the largest
// stencil9 the task cap admits, 4 a task.
const maxPatternEdges = 1 << 24

// sizeCap is where a spec's counts saturate: far above both caps, and
// far enough below overflow that sums and products of saturated counts
// stay in range.
const sizeCap = 1 << 40

// PatternSizeError refuses a spec whose graph would exceed a cap: more
// than 2^22 tasks or 2^24 edges.
type PatternSizeError struct {
	Spec string
	// Unit is what exceeds its cap: "tasks" or "edges".
	Unit string
	// Count is the spec's count, saturated at 2^40; Max is the cap.
	Count, Max int
}

func (e *PatternSizeError) Error() string {
	count := fmt.Sprint(e.Count)
	if e.Count >= sizeCap {
		count = "over 2^40"
	}
	return fmt.Sprintf("cliutil: pattern %q has %s %s, must be <= %d %s", e.Spec, count, e.Unit, e.Max, e.Unit)
}

// mul is the product of counts, saturated at sizeCap.
func mul(xs ...int) int {
	p := 1
	for _, x := range xs {
		x = min(x, sizeCap)
		if x != 0 && p > sizeCap/x {
			return sizeCap
		}
		p *= x
	}
	return p
}

// add is the sum of counts, saturated at sizeCap.
func add(xs ...int) int {
	s := 0
	for _, x := range xs {
		s = min(s+min(x, sizeCap), sizeCap)
	}
	return s
}

// half halves a pair count, leaving a saturated one saturated.
func half(x int) int {
	if x >= sizeCap {
		return x
	}
	return x / 2
}

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

// meshSize is the Size of an X × Y mesh: one edge between each pair of
// neighbours along an extent.
func meshSize(a []int) (int, int) {
	return mul(a[0], a[1]), add(mul(a[0]-1, a[1]), mul(a[0], a[1]-1))
}

// leanMDHaloEdges is the halo's edge count on LeanMD's 18 × 15 × 12 cell
// grid: 9 054 faces, 16 866 edges and 10 472 corners shared.
const leanMDHaloEdges = 36392

// patternTable order is the order of PatternNames.
var patternTable = []PatternRow{
	{Kind: "mesh2d", Args: extents(1, "RX", "RY"), Coords: lattice, Size: meshSize,
		Build: func(a []int, msg float64, _ int64) *taskgraph.Graph { return taskgraph.Mesh2D(a[0], a[1], msg) }},
	{Kind: "mesh3d", Args: extents(1, "RX", "RY", "RZ"), Coords: lattice,
		Size: func(a []int) (int, int) {
			x, y, z := a[0], a[1], a[2]
			return mul(x, y, z), add(mul(x-1, y, z), mul(x, y-1, z), mul(x, y, z-1))
		},
		Build: func(a []int, msg float64, _ int64) *taskgraph.Graph { return taskgraph.Mesh3D(a[0], a[1], a[2], msg) }},
	{Kind: "ring", Args: extents(3, "N"), Coords: lattice,
		Size:  func(a []int) (int, int) { return a[0], a[0] },
		Build: func(a []int, msg float64, _ int64) *taskgraph.Graph { return taskgraph.Ring(a[0], msg) }},
	{Kind: "alltoall", Args: extents(2, "N"),
		Size:  func(a []int) (int, int) { return a[0], half(mul(a[0], a[0]-1)) },
		Build: func(a []int, msg float64, _ int64) *taskgraph.Graph { return taskgraph.AllToAll(a[0], msg) }},
	{Kind: "torus2d", Args: extents(3, "RX", "RY"), Coords: lattice,
		Size:  func(a []int) (int, int) { return mul(a[0], a[1]), mul(2, a[0], a[1]) },
		Build: func(a []int, msg float64, _ int64) *taskgraph.Graph { return taskgraph.Torus2D(a[0], a[1], msg) }},
	// The 3D cell grid plus P integrators.
	{Kind: "leanmd", Args: extents(1, "P"),
		Size: func(a []int) (int, int) {
			p := a[0]
			return add(taskgraph.LeanMDCells, p), add(leanMDHaloEdges, mul(p, max(taskgraph.LeanMDCells/p, 1)))
		},
		Build:  func(a []int, msg float64, seed int64) *taskgraph.Graph { return taskgraph.LeanMD(a[0], msg, seed) },
		Coords: func(a []int, _ int64) [][]float64 { return taskgraph.LeanMDCoords(a[0]) }},
	{Kind: "random", Args: []PatternArg{{Name: "N", Min: 3}, {Name: "M", Min: 1}},
		Size: func(a []int) (int, int) { return a[0], min(max(a[0], a[1]), sizeCap) },
		Build: func(a []int, msg float64, seed int64) *taskgraph.Graph {
			return taskgraph.Random(a[0], a[1], msg/2, msg, seed)
		}},
	// The cell-bucketed random geometric graph whose radius gives an
	// interior point DEG+1 expected neighbours (fewer at the border: the
	// mean degree of rgg:65536,8 is 8.94), cheap enough for million-task
	// instances; its coordinates are the exact points the generator
	// connected for the same seed.
	{Kind: "rgg", Args: []PatternArg{{Name: "N", Min: 2}, {Name: "DEG", Min: 1}},
		Size: func(a []int) (int, int) { return a[0], half(mul(a[0]-1, a[1]+1)) },
		Build: func(a []int, msg float64, seed int64) *taskgraph.Graph {
			return taskgraph.RandomGeometricDeg(a[0], a[1], msg, seed)
		},
		Coords: func(a []int, seed int64) [][]float64 { return taskgraph.RandomGeometricCoords(a[0], seed) }},
	{Kind: "stencil9", Args: extents(1, "RX", "RY"), Coords: lattice,
		Size: func(a []int) (int, int) {
			tasks, faces := meshSize(a)
			return tasks, add(faces, mul(2, a[0]-1, a[1]-1))
		},
		Build: func(a []int, msg float64, _ int64) *taskgraph.Graph { return taskgraph.Stencil9(a[0], a[1], msg) }},
	{Kind: "transpose", Args: extents(2, "N"),
		Size:  func(a []int) (int, int) { return mul(a[0], a[0]), half(mul(a[0], a[0]-1)) },
		Build: func(a []int, msg float64, _ int64) *taskgraph.Graph { return taskgraph.Transpose(a[0], msg) }},
	{Kind: "bintree", Args: extents(1, "N"),
		Size:  func(a []int) (int, int) { return a[0], a[0] - 1 },
		Build: func(a []int, msg float64, _ int64) *taskgraph.Graph { return taskgraph.BinaryTree(a[0], msg) }},
	{Kind: "butterfly", Args: []PatternArg{{Name: "STAGES", Min: 1, Max: 20}},
		Size:  func(a []int) (int, int) { return 1 << a[0], a[0] << (a[0] - 1) },
		Build: func(a []int, msg float64, _ int64) *taskgraph.Graph { return taskgraph.Butterfly(a[0], msg) }},
	{Kind: "wavefront", Args: extents(1, "RX", "RY"), Coords: lattice, Size: meshSize,
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
// the row's bounds and, by the row's Size, the caps on tasks and edges.
func findPattern(spec string) (PatternRow, []int, error) {
	kind, args, err := splitSpec(spec)
	if err != nil {
		return PatternRow{}, nil, err
	}
	for _, r := range patternTable {
		if r.Kind != kind || len(r.Args) != len(args) {
			continue
		}
		for i, a := range r.Args {
			if v := args[i]; v < a.Min {
				return r, nil, fmt.Errorf("cliutil: pattern extent %d must be >= %d", v, a.Min)
			} else if a.Max > 0 && v > a.Max {
				return r, nil, fmt.Errorf("cliutil: pattern extent %d must be <= %d", v, a.Max)
			}
		}
		tasks, edges := r.Size(args)
		if tasks > maxPatternTasks {
			return r, nil, &PatternSizeError{Spec: spec, Unit: "tasks", Count: tasks, Max: maxPatternTasks}
		}
		if edges > maxPatternEdges {
			return r, nil, &PatternSizeError{Spec: spec, Unit: "edges", Count: edges, Max: maxPatternEdges}
		}
		return r, args, nil
	}
	return PatternRow{}, nil, fmt.Errorf("cliutil: unknown pattern %q", spec)
}

// resolvePattern is findPattern with ParsePattern's check of the bytes.
func resolvePattern(spec string, msg float64) (PatternRow, []int, error) {
	r, args, err := findPattern(spec)
	if err != nil {
		return r, nil, err
	}
	if msg < 0 || math.IsNaN(msg) {
		return r, nil, fmt.Errorf("cliutil: message bytes %g must be >= 0", msg)
	}
	return r, args, nil
}

// ParsePattern builds the task graph of a pattern spec (see PatternNames).
// msg sets the per-edge bytes; seed drives randomized generators.
func ParsePattern(spec string, msg float64, seed int64) (*taskgraph.Graph, error) {
	r, args, err := resolvePattern(spec, msg)
	if err != nil {
		return nil, err
	}
	return r.Build(args, msg, seed), nil
}

// PatternSize returns the task and edge counts of the graph ParsePattern
// would build for spec and msg (see PatternRow.Size), or the error it
// would return, without building anything.
func PatternSize(spec string, msg float64) (tasks, edges int, err error) {
	r, args, err := resolvePattern(spec, msg)
	if err != nil {
		return 0, 0, err
	}
	tasks, edges = r.Size(args)
	return tasks, edges, nil
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
