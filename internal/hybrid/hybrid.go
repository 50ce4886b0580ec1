// Package hybrid implements the semi-distributed mapping scheme the
// paper's conclusion (§6) proposes for future machines: "a distributed
// approach toward keeping communication localized in a neighborhood may
// be needed for scalability".
//
// The machine is tiled into equal blocks (sub-grids). Tasks are first
// partitioned into one group of exactly one block's size per block, by
// partition.CapacityPartition (the split the hierarchical mapper makes
// without coordinates), and the group-level quotient graph is mapped
// onto the coarse block grid with TopoLB; then each group is
// mapped within its block, again with TopoLB, using only the group's
// induced subgraph. Both levels are small, so the total cost drops from
// TopoLB's O(p²) toward O(B² + p²/B) at a modest hop-byte penalty — the
// trade the ablation benchmarks quantify.
package hybrid

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/partition"
	"repro/internal/taskgraph"
	"repro/internal/topology"
)

// Hybrid is a hierarchical block-wise mapping strategy for mesh and torus
// machines.
type Hybrid struct {
	// Block is the block shape; every machine dimension must be divisible
	// by the corresponding block extent.
	Block []int
	// Seed drives the partitioning phase.
	Seed int64
}

// Name implements core.Strategy.
func (h Hybrid) Name() string { return fmt.Sprintf("Hybrid%v", h.Block) }

// Map implements core.Strategy.
func (h Hybrid) Map(g *taskgraph.Graph, t topology.Topology) (core.Mapping, error) {
	if g.NumVertices() != t.Nodes() {
		return nil, fmt.Errorf("hybrid: task count %d != processor count %d", g.NumVertices(), t.Nodes())
	}
	co, ok := t.(topology.Coordinated)
	if !ok {
		return nil, fmt.Errorf("hybrid: %s is not a mesh/torus machine", t.Name())
	}
	dims := co.Dims()
	if len(h.Block) != len(dims) {
		return nil, fmt.Errorf("hybrid: block has %d dimensions, machine has %d", len(h.Block), len(dims))
	}
	blockGrid := make([]int, len(dims))
	blockVol := 1
	for i, b := range h.Block {
		if b < 1 || dims[i]%b != 0 {
			return nil, fmt.Errorf("hybrid: block extent %d does not divide machine extent %d", b, dims[i])
		}
		blockGrid[i] = dims[i] / b
		blockVol *= b
	}
	numBlocks := t.Nodes() / blockVol

	// Phase 1: one group of exactly blockVol tasks per block. The
	// multilevel partition keeps the real weights (unit weights would skew
	// LeanMD-style graphs); CapacityPartition's count repair then moves
	// each over-full group's least-loss tasks to under-full groups.
	targets := make([]int, numBlocks)
	for i := range targets {
		targets[i] = blockVol
	}
	pr, err := partition.CapacityPartition(g, targets, partition.Multilevel{Seed: h.Seed})
	if err != nil {
		return nil, err
	}

	// Phase 2: map the group quotient graph onto the coarse block grid.
	// The block grid inherits the machine's kind: blocks of a torus whose
	// wraparound survives tiling form a torus of blocks; a mesh stays a
	// mesh. (For simplicity and safety we use a mesh unless the machine
	// is a torus.)
	q, err := partition.Quotient(g, pr)
	if err != nil {
		return nil, err
	}
	var blockTopo topology.Topology
	if _, isTorus := t.(*topology.Torus); isTorus {
		blockTopo, err = topology.NewTorus(blockGrid...)
	} else {
		blockTopo, err = topology.NewMesh(blockGrid...)
	}
	if err != nil {
		return nil, err
	}
	blockMap, err := core.TopoLB{}.Map(q, blockTopo)
	if err != nil {
		return nil, fmt.Errorf("hybrid: block-level mapping: %w", err)
	}
	blockCo := blockTopo.(topology.Coordinated)

	// Phase 3: map each group inside its block with the induced subgraph.
	m := make(core.Mapping, g.NumVertices())
	groups := make([][]int, numBlocks)
	for v, grp := range pr.Assign {
		groups[grp] = append(groups[grp], v)
	}
	localTopo, err := topology.NewMesh(h.Block...)
	if err != nil {
		return nil, err
	}
	localCo := topology.Coordinated(localTopo)
	blockCoord := make([]int, len(dims))
	localCoord := make([]int, len(dims))
	globalCoord := make([]int, len(dims))
	pos := taskgraph.NewPositions(g.NumVertices())
	for grp, members := range groups {
		sub, err := taskgraph.Induced(g, members, pos)
		if err != nil {
			return nil, fmt.Errorf("hybrid: block %d: %w", grp, err)
		}
		localMap, err := core.TopoLB{}.Map(sub, localTopo)
		if err != nil {
			return nil, fmt.Errorf("hybrid: block %d mapping: %w", grp, err)
		}
		blockCo.Coord(blockMap[grp], blockCoord)
		for i, v := range members {
			localCo.Coord(localMap[i], localCoord)
			for d := range globalCoord {
				globalCoord[d] = blockCoord[d]*h.Block[d] + localCoord[d]
			}
			m[v] = co.Rank(globalCoord)
		}
	}
	return m, nil
}
