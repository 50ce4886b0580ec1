package core

import (
	"fmt"

	"repro/internal/partition"
	"repro/internal/sfc"
	"repro/internal/taskgraph"
	"repro/internal/topology"
)

// This file implements the near-linear geometric tier (Deveci et al.,
// "Geometric Partitioning and Ordering Strategies for Task Mapping on
// Parallel Computers"): instead of a distance matrix or a coarsening
// hierarchy, locality comes from ordering both sides of the assignment
// along space-filling curves. Tasks are laid along a curve over their
// coordinates (or a BFS order when no geometry exists), processors are
// walked in the machine's own curve order (topology.CurveOrder), and
// contiguous curve runs map to consecutive processors through the same
// closed-form slot space the multilevel mapper uses. Everything is
// O(n log n) time, O(n) memory, and byte-identical at any GOMAXPROCS.

// SFC orders tasks by the space-filling-curve index of their coordinates
// and assigns contiguous curve runs to processors walked in the
// machine's curve order. With no coordinates the task order falls back
// to a breadth-first traversal of the communication graph, which keeps
// neighborhoods contiguous on graphs whose structure is spatial even
// when no geometry was supplied. Implements Placer: any n >= p works,
// each processor receiving ⌊n/p⌋ or ⌈n/p⌉ tasks.
type SFC struct {
	// Coords[v] is task v's position (1-8 dimensions, all rows equal
	// length), consumed exactly like partition.RCB consumes them. Nil
	// selects the graph-BFS fallback order.
	Coords [][]float64
}

// Name implements Strategy.
func (SFC) Name() string { return "SFC" }

// WithCoords returns s reading task positions from coords.
func (s SFC) WithCoords(coords [][]float64) Strategy {
	s.Coords = coords
	return s
}

// Map implements Strategy for the n == p case; the result is a bijection.
func (s SFC) Map(g *taskgraph.Graph, t topology.Topology) (Mapping, error) {
	return placeMap(s, g, t)
}

// Place implements Placer for any n >= p.
func (s SFC) Place(g *taskgraph.Graph, t topology.Topology) ([]int, error) {
	n, p := g.NumVertices(), t.Nodes()
	if n < p {
		return nil, fmt.Errorf("core: %d tasks cannot cover %d processors", n, p)
	}
	order, err := curveTaskOrder(g, s.Coords)
	if err != nil {
		return nil, err
	}
	return placeRuns(order, t), nil
}

// placeRuns assigns the task at curve position s to the slotProc(s)-th
// processor of the machine's curve walk: both sides are curve-ordered,
// so slot-adjacent tasks land on topology-near processors.
func placeRuns(order []int32, t topology.Topology) []int {
	n, p := len(order), t.Nodes()
	procOrder := topology.CurveOrder(t)
	placement := make([]int, n)
	for pos, v := range order {
		placement[v] = int(procOrder[slotProc(int32(pos), n, p)])
	}
	return placement
}

// curveTaskOrder returns the tasks of g in curve order: by quantized
// space-filling-curve key of their coordinates (ties broken by task id),
// or by BFS from the lowest-index vertex of each component when coords
// is nil.
func curveTaskOrder(g *taskgraph.Graph, coords [][]float64) ([]int32, error) {
	n := g.NumVertices()
	if coords == nil {
		return bfsOrder(g), nil
	}
	if len(coords) != n {
		return nil, fmt.Errorf("core: sfc has %d coordinates for %d tasks", len(coords), n)
	}
	keys, err := sfc.Keys(coords)
	if err != nil {
		return nil, fmt.Errorf("core: sfc: %w", err)
	}
	return sfc.Rank(keys), nil
}

// bfsOrder returns a breadth-first ordering of g's vertices: components
// in ascending lowest-vertex order, neighbors visited in CSR (sorted)
// order. Deterministic by construction.
func bfsOrder(g *taskgraph.Graph) []int32 {
	n := g.NumVertices()
	xadj, adjncy, _ := g.CSR()
	order := make([]int32, 0, n)
	visited := make([]bool, n)
	queue := make([]int32, 0, n)
	for root := 0; root < n; root++ {
		if visited[root] {
			continue
		}
		visited[root] = true
		queue = append(queue[:0], int32(root))
		order = append(order, int32(root))
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for i := xadj[v]; i < xadj[v+1]; i++ {
				u := adjncy[i]
				if !visited[u] {
					visited[u] = true
					order = append(order, u)
					queue = append(queue, u)
				}
			}
		}
	}
	return order
}

// RCBSFC partitions tasks geometrically with recursive coordinate
// bisection and assigns parts to processors by curve-ordering the part
// centroids against the machine's curve walk (the Deveci et al.
// "partition + curve assignment" construction). The RCB phase balances
// load by vertex weight; the curve phase gives the part→processor
// assignment locality on both sides. Without coordinates RCB cannot
// run, so the strategy degrades to SFC's graph-BFS order.
type RCBSFC struct {
	// Coords[v] is task v's position, as in SFC and partition.RCB.
	Coords [][]float64
}

// Name implements Strategy.
func (RCBSFC) Name() string { return "RCB-SFC" }

// WithCoords returns s reading task positions from coords.
func (s RCBSFC) WithCoords(coords [][]float64) Strategy {
	s.Coords = coords
	return s
}

// Map implements Strategy for the n == p case; the result is a bijection.
func (s RCBSFC) Map(g *taskgraph.Graph, t topology.Topology) (Mapping, error) {
	return placeMap(s, g, t)
}

// Place implements Placer for any n >= p.
func (s RCBSFC) Place(g *taskgraph.Graph, t topology.Topology) ([]int, error) {
	n, p := g.NumVertices(), t.Nodes()
	if n < p {
		return nil, fmt.Errorf("core: %d tasks cannot cover %d processors", n, p)
	}
	if s.Coords == nil {
		// No geometry, no bisection: the BFS curve order is the best
		// coordinate-free approximation of the same construction.
		return SFC{}.Place(g, t)
	}
	pr, err := partition.RCB{Coords: s.Coords}.Partition(g, p)
	if err != nil {
		return nil, fmt.Errorf("core: rcb-sfc: %w", err)
	}
	// Part centroids: the mean position of each part's tasks, rows of
	// one p×dims slab.
	dims := len(s.Coords[0])
	slab := make([]float64, p*dims)
	centroids := make([][]float64, p)
	counts := make([]int, p)
	for q := range centroids {
		centroids[q] = slab[q*dims : (q+1)*dims : (q+1)*dims]
	}
	for v, q := range pr.Assign {
		c := centroids[q]
		for i, x := range s.Coords[v] {
			c[i] += x
		}
		counts[q]++
	}
	for q, c := range centroids {
		if counts[q] > 0 {
			inv := 1 / float64(counts[q])
			for i := range c {
				c[i] *= inv
			}
		}
	}
	keys, err := sfc.Keys(centroids)
	if err != nil {
		return nil, fmt.Errorf("core: rcb-sfc: %w", err)
	}
	partOrder := sfc.Rank(keys)
	// The i-th part along the centroid curve goes to the i-th processor
	// along the machine curve.
	procOrder := topology.CurveOrder(t)
	partProc := make([]int32, p)
	for i, q := range partOrder {
		partProc[q] = procOrder[i]
	}
	placement := make([]int, n)
	for v, q := range pr.Assign {
		placement[v] = int(partProc[q])
	}
	return placement, nil
}

var (
	_ Placer = SFC{}
	_ Placer = RCBSFC{}
)
