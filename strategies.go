package topomap

import (
	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/hybrid"
)

// The related-work mapping algorithms surveyed in the paper's §2, usable
// anywhere a Strategy is accepted.

// Annealing minimizes hop-bytes by simulated annealing over processor
// swaps (a physical-optimization comparator: high quality, slow).
type Annealing = baselines.Annealing

// Snake maps a logical task grid onto a mesh/torus machine in
// boustrophedon order — the classic structured-grid practice.
type Snake = baselines.Snake

// Hybrid is the hierarchical block-wise mapper the paper's conclusion
// proposes for very large machines: blocks are mapped coarsely, then
// each group is mapped within its block.
type Hybrid = hybrid.Hybrid

// MultilevelMap is the hierarchical coarsen→map→refine strategy for very
// large task graphs: coarsen by heavy-edge matching, map the coarsest
// graph with TopoLB, uncoarsen with bounded hop-bytes refinement using
// closed-form distances only. Implements Placer, so MapTasks applies it
// directly when tasks outnumber processors.
type MultilevelMap = core.MultilevelMap

// HierMap is the two-phase strategy for Hierarchy machines: phase 1
// recursively splits the task graph into exact-capacity groups down the
// levels (geometric bisection when task coordinates are set, multilevel
// graph partitioning otherwise), phase 2 maps each leaf with a flat
// kernel, and two sweeps of Refine improve the placement under the
// composite metric. Implements Placer; with fewer tasks than processors
// it packs compactly onto the lowest ranks (the service's constraint
// mode).
type HierMap = core.HierMap

// SFC is the near-linear geometric strategy: tasks ordered by the
// space-filling-curve index of their coordinates (graph-BFS order when
// no coordinates exist), contiguous curve runs assigned to processors
// walked in the machine's own curve order. Implements Placer.
type SFC = core.SFC

// RCBSFC partitions tasks by recursive coordinate bisection and assigns
// parts to processors by curve-ordering their centroids (Deveci et al.).
// Implements Placer.
type RCBSFC = core.RCBSFC
