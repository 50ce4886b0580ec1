package core

import (
	"fmt"

	"repro/internal/hiertopo"
	"repro/internal/partition"
	"repro/internal/taskgraph"
	"repro/internal/topology"
)

// This file implements the two-phase hierarchical strategy for machines
// described by hiertopo.Hierarchy. Phase 1 recursively partitions the
// task graph across the hierarchy: at every level the vertices of the
// current region split into exact-capacity groups with
// partition.CapacityPartition (or partition.CapacityRCB when the tasks
// have coordinates), so each child instance receives precisely
// the tasks it has processors for (or, when the machine is larger than
// the job, a compact prefix of children receives at most its capacity —
// the packing mode the service's placement constraints rely on). Phase 2
// maps each leaf partition with an ordinary flat kernel against the real
// leaf topology. Finally hierRefinePasses sweeps of Refine, the paper's
// swap pass, refine the whole placement under the composite metric, where
// moving a byte across an outer level costs an order of magnitude more
// than crossing an inner one.
//
// The expensive machinery never sees the composite distance: partition
// cuts minimize edge weight (the bytes that will cross a level boundary,
// whatever its cost), and leaf kernels see only the leaf topology. Only
// the cheap final refinement consults Hierarchy.Distance, through
// SwapDelta — the hop-bytes every strategy is reported and judged by.

// hierLeafTopoLBMax bounds the leaf size mapped with TopoLB; larger
// leaves use the multilevel kernel, whose cost is near-linear.
const hierLeafTopoLBMax = 2048

// hierRefinePasses bounds the Refine sweeps over the finished placement.
const hierRefinePasses = 2

// HierMap is the two-phase hierarchical strategy. It requires a
// *hiertopo.Hierarchy topology; flat machines should use the ordinary
// strategies directly. The zero value is ready to use.
type HierMap struct {
	// Seed drives the per-level partitioner.
	Seed int64
	// Coords are per-task positions (row i = task i), read as
	// partition.RCB reads them. When there is one row per task, phase 1
	// splits regions by exact-count coordinate bisection
	// (partition.CapacityRCB) instead of graph partitioning: siblings are
	// equidistant under the composite metric, so only the bytes cut per
	// level matter, and on geometric workloads straight axis cuts beat
	// any coarsened graph cut. Nil, or a slice of another length, falls
	// back to the graph partitioner.
	Coords [][]float64
}

var _ Placer = HierMap{}

// Name implements Strategy.
func (s HierMap) Name() string { return "Hier" }

// WithCoords returns s splitting regions by the task positions in coords.
func (s HierMap) WithCoords(coords [][]float64) Strategy {
	s.Coords = coords
	return s
}

// Map implements Strategy for the n == p case; the result is a bijection.
func (s HierMap) Map(g *taskgraph.Graph, t topology.Topology) (Mapping, error) {
	return placeMap(s, g, t)
}

// Place maps n tasks onto the hierarchy. n >= Nodes() is the ordinary
// surjective Placer contract (every processor receives a task). n <
// Nodes() is compact packing: tasks occupy the fewest children at every
// level, always the lowest-ranked ones, leaving the tail of the machine
// idle — the mode the service uses to honor placement constraints. The
// result is byte-identical at any GOMAXPROCS.
func (s HierMap) Place(g *taskgraph.Graph, t topology.Topology) ([]int, error) {
	h, ok := t.(*hiertopo.Hierarchy)
	if !ok {
		return nil, fmt.Errorf("core: hier strategy requires a hierarchical topology (hier:SPEC), got %q", t.Name())
	}
	n := g.NumVertices()
	if n < 1 {
		return nil, fmt.Errorf("core: hier strategy needs at least one task")
	}
	d := newHierDescender(s, h, n)
	if len(s.Coords) == n {
		if err := partition.CheckCoords(s.Coords, n); err != nil {
			return nil, fmt.Errorf("core: hier: %w", err)
		}
		d.coords = s.Coords
	}
	verts := make([]int, n)
	for i := range verts {
		verts[i] = i
	}
	if err := d.descend(g, verts, 0, 0); err != nil {
		return nil, err
	}
	Refine(g, h, d.placement, hierRefinePasses)
	return d.placement, nil
}

// hierDescender carries the recursion state of phase 1.
type hierDescender struct {
	s         HierMap
	h         *hiertopo.Hierarchy
	placement []int
	// coords, when non-nil, holds every original task's position and
	// routes the per-level splits through partition.CapacityRCB.
	coords [][]float64
	// pos is taskgraph.Induced's scratch, shared by every region and
	// leaf: the recursion induces one subgraph at a time, and every
	// graph it induces from has at most n vertices.
	pos []int32
}

// newHierDescender returns phase 1's state for n tasks on h.
func newHierDescender(s HierMap, h *hiertopo.Hierarchy, n int) *hierDescender {
	return &hierDescender{s: s, h: h, placement: make([]int, n), pos: taskgraph.NewPositions(n)}
}

// descend splits the tasks in verts (whose induced subgraph is sub)
// across the children of one level-(level-1) instance based at rank
// base, recursing until the region is a single leaf. Children are
// processed in ascending order and leaves are mapped serially, so the
// recursion is deterministic regardless of GOMAXPROCS. Coordinate
// splits never read sub, so under them sub stays the whole graph and
// only mapLeaf induces a subgraph.
func (d *hierDescender) descend(sub *taskgraph.Graph, verts []int, level, base int) error {
	if level == d.h.NumLevels() {
		return d.mapLeaf(sub, verts, base)
	}
	m := len(verts)
	childInst := d.h.InstanceSize(level)
	// Fewest children that can hold m tasks, capped at the fan-out: the
	// surjective case (m >= fanout*childInst) always uses every child,
	// the packing case uses a compact prefix.
	k := (m + childInst - 1) / childInst
	if f := d.h.Levels()[level].Count; k > f {
		k = f
	}
	if k == 1 {
		return d.descend(sub, verts, level+1, base)
	}
	// Balanced exact targets: child i receives ceil((i+1)m/k)-ceil(im/k)
	// tasks. When m >= k*childInst every target is >= childInst (the
	// child can go surjective); when m < k*childInst every target is
	// <= childInst (the child can pack).
	targets := make([]int, k)
	prev := 0
	for i := 1; i <= k; i++ {
		cut := (i*m + k - 1) / k
		targets[i-1] = cut - prev
		prev = cut
	}
	var r *partition.Result
	var err error
	if d.coords != nil {
		rows := make([][]float64, m)
		for i, v := range verts {
			rows[i] = d.coords[v]
		}
		r, err = partition.CapacityRCB(rows, targets)
	} else {
		// Outer cuts carry exponentially higher composite cost, so the
		// outermost split gets the most partitioner effort; the budget decays
		// toward the defaults as the recursion descends. Coarsening stops
		// early (scaled to the region, capped at 4096) because cut quality on
		// these make-or-break splits is worth the extra bisection time.
		effort := d.h.NumLevels() - level
		coarsenTo := m / 16
		if coarsenTo > 4096 {
			coarsenTo = 4096
		}
		if coarsenTo < 128 {
			coarsenTo = 0 // partitioner default
		}
		r, err = partition.CapacityPartition(sub, targets, partition.Multilevel{
			Seed:         d.s.Seed ^ int64(base)<<20 ^ int64(level),
			BisectTries:  4 * effort,
			RefinePasses: 4 * effort,
			CoarsenTo:    coarsenTo,
		})
	}
	if err != nil {
		return fmt.Errorf("core: hier split at level %d: %w", level, err)
	}
	groups := make([][]int, k)
	for i := range groups {
		groups[i] = make([]int, 0, targets[i])
	}
	for v, q := range r.Assign {
		groups[q] = append(groups[q], v)
	}
	for i, local := range groups {
		childVerts := make([]int, len(local))
		for j, lv := range local {
			childVerts[j] = verts[lv]
		}
		subChild := sub
		if d.coords == nil {
			if subChild, err = taskgraph.Induced(sub, local, d.pos); err != nil {
				return fmt.Errorf("core: hier split at level %d: %w", level, err)
			}
		}
		if err := d.descend(subChild, childVerts, level+1, base+i*childInst); err != nil {
			return err
		}
	}
	return nil
}

// mapLeaf places the tasks in verts onto the leaf based at rank base:
// a full leaf maps bijectively with the leaf kernel, an overfull leaf
// goes through the multilevel placer, and an underfull leaf maps onto a
// compact prefix of the leaf's locality order.
func (d *hierDescender) mapLeaf(sub *taskgraph.Graph, verts []int, base int) error {
	m := len(verts)
	slf := d.h.LeafSize()
	if slf == 1 {
		for _, v := range verts {
			d.placement[v] = base
		}
		return nil
	}
	if d.coords != nil && m < sub.NumVertices() {
		// sub is the whole graph (see descend). verts ascend, so the
		// leaf's subgraph numbers its tasks as inducing region by region
		// would.
		var err error
		if sub, err = taskgraph.Induced(sub, verts, d.pos); err != nil {
			return fmt.Errorf("core: hier leaf at rank %d: %w", base, err)
		}
	}
	leaf := d.h.Leaf()
	switch {
	case m == slf:
		mm, err := d.leafStrategy(m).Map(sub, leaf)
		if err != nil {
			return fmt.Errorf("core: hier leaf at rank %d: %w", base, err)
		}
		for i, v := range verts {
			d.placement[v] = base + mm[i]
		}
	case m > slf:
		pl, err := MultilevelMap{}.Place(sub, leaf)
		if err != nil {
			return fmt.Errorf("core: hier leaf at rank %d: %w", base, err)
		}
		for i, v := range verts {
			d.placement[v] = base + pl[i]
		}
	default: // m < slf: pack onto the head of the leaf's locality order
		order := localityOrder(leaf)
		prefix := &subsetTopology{d: topology.ClosedDists(leaf), reps: order[:m],
			name: fmt.Sprintf("hierprefix(%s,%d)", leaf.Name(), m)}
		mm, err := d.leafStrategy(m).Map(sub, prefix)
		if err != nil {
			return fmt.Errorf("core: hier leaf at rank %d: %w", base, err)
		}
		for i, v := range verts {
			d.placement[v] = base + int(order[mm[i]])
		}
	}
	return nil
}

// leafStrategy picks the bijective kernel for an m-processor leaf view.
func (d *hierDescender) leafStrategy(m int) Strategy {
	if m <= hierLeafTopoLBMax {
		return TopoLB{}
	}
	return MultilevelMap{}
}
