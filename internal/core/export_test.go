package core

import (
	"repro/internal/taskgraph"
	"repro/internal/topology"
)

// TopoLBRescans runs incremental TopoLB at the given order and returns its
// work counter: the full-row (or full-class) rescans forced on slots that
// a cycle did not otherwise touch, because the processor just taken held
// their minimum. A count, not a timing, so tests can pin it.
func TopoLBRescans(g *taskgraph.Graph, t topology.Topology, order Order) int64 {
	_, rescans := TopoLB{}.mapIncremental(g, t, order, nil)
	return rescans
}
