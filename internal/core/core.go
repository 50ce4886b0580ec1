// Package core implements the paper's contribution: topology-aware mapping
// of a p-task communication graph onto a p-processor network so that
// heavily communicating tasks land on nearby processors, minimizing the
// hop-bytes metric (total bytes weighted by the hop distance they travel).
//
// Strategies:
//
//   - TopoLB — the paper's main heuristic. Each cycle places the task whose
//     placement is most critical (largest gap between its average and
//     minimum estimated cost over free processors) on its cheapest free
//     processor. Estimation functions of first, second (default), and
//     third order trade fidelity for running time (§4.3–4.4).
//   - TopoCentLB — the simpler comparator (§4.5): repeatedly place the task
//     with maximum communication to already-placed tasks where that
//     communication is cheapest (first-order estimation; Baba et al.'s
//     (P3,P4) scheme).
//   - RefineTopoLB — pairwise-swap refinement accepting only hop-byte
//     reductions, intended to run after an initial strategy.
//   - Random — the baseline the paper compares against (GreedyLB placement
//     is essentially random with respect to topology).
//   - Identity — task i on processor i; the optimal isomorphism mapping
//     when the task graph is built with the machine's own shape (Table 1).
//
// All strategies operate on equal task and processor counts; feed larger
// applications through package partition first (the two-phase approach).
package core

import (
	"fmt"

	"repro/internal/taskgraph"
	"repro/internal/topology"
)

// Mapping assigns each task to a processor: Mapping[task] = processor.
// Strategies in this package produce bijections (every processor receives
// exactly one task).
type Mapping []int

// Strategy maps a task graph onto a topology.
type Strategy interface {
	// Map produces a mapping of g's tasks onto t's processors. All
	// strategies here require g.NumVertices() == t.Nodes().
	Map(g *taskgraph.Graph, t topology.Topology) (Mapping, error)
	// Name identifies the strategy in reports ("TopoLB", ...).
	Name() string
}

// Validate checks that m is a bijection from g's tasks onto t's processors.
func (m Mapping) Validate(g *taskgraph.Graph, t topology.Topology) error {
	if len(m) != g.NumVertices() {
		return fmt.Errorf("core: mapping has %d entries for %d tasks", len(m), g.NumVertices())
	}
	if len(m) != t.Nodes() {
		return fmt.Errorf("core: %d tasks but %d processors", len(m), t.Nodes())
	}
	seen := make([]bool, t.Nodes())
	for task, proc := range m {
		if proc < 0 || proc >= t.Nodes() {
			return fmt.Errorf("core: task %d on processor %d, out of [0,%d)", task, proc, t.Nodes())
		}
		if seen[proc] {
			return fmt.Errorf("core: processor %d assigned twice", proc)
		}
		seen[proc] = true
	}
	return nil
}

// Clone returns a copy of m.
func (m Mapping) Clone() Mapping {
	c := make(Mapping, len(m))
	copy(c, m)
	return c
}

// CheckSizes verifies Map's one-task-per-processor precondition, here and
// in internal/baselines; a Placer takes more tasks through Place.
func CheckSizes(g *taskgraph.Graph, t topology.Topology) error {
	if g.NumVertices() != t.Nodes() {
		return fmt.Errorf("core: task count %d != processor count %d (partition first)",
			g.NumVertices(), t.Nodes())
	}
	return nil
}
