package core

import (
	"fmt"

	"repro/internal/partition"
	"repro/internal/taskgraph"
	"repro/internal/topology"
)

// PipelineResult reports the two-phase mapping of a task graph with more
// tasks than processors.
type PipelineResult struct {
	// Placement assigns every original task to a processor.
	Placement []int
	// Groups is the phase-one partition.
	Groups *partition.Result
	// QuotientGraph is the coalesced group-level graph.
	QuotientGraph *taskgraph.Graph
	// GroupMapping is the phase-two mapping of groups onto processors.
	GroupMapping Mapping
	// HopsPerByte is measured on the quotient graph, as the paper reports.
	HopsPerByte float64
	// EdgeCut is the phase-one inter-group communication volume.
	EdgeCut float64
	// Imbalance is max processor load over average.
	Imbalance float64
}

// MapTasks runs the paper's full two-phase pipeline (§4): partition g into
// one group per processor of t (topology-obliviously, balancing load),
// build the quotient graph, and map it with strat. A nil part defaults to
// the multilevel partitioner; a nil strat defaults to TopoLB with
// refinement. A Placer given more tasks than processors places them in
// one shot, and the result reports the groups its placement induces; a
// RefineTopoLB over a Placer places with its Base and then refines those
// groups, which move whole, so every processor's load is kept.
func MapTasks(g *taskgraph.Graph, t topology.Topology, part partition.Partitioner, strat Strategy) (*PipelineResult, error) {
	if g.NumVertices() < t.Nodes() {
		return nil, fmt.Errorf("core: %d tasks cannot fill %d processors", g.NumVertices(), t.Nodes())
	}
	if part == nil {
		part = partition.Multilevel{}
	}
	if strat == nil {
		strat = RefineTopoLB{Base: TopoLB{}}
	}
	base, refined := strat, false
	if r, ok := strat.(RefineTopoLB); ok {
		base, refined = r.Base, true
	}
	if pl, ok := base.(Placer); ok && g.NumVertices() > t.Nodes() {
		placement, err := pl.Place(g, t)
		if err != nil {
			return nil, err
		}
		// The placement is the partition — group q is the tasks on
		// processor q — and the identity maps it.
		part, strat = placed(placement), Identity{}
		if refined {
			strat = RefineTopoLB{Base: Identity{}}
		}
	}
	return MapQuotient(g, t, part, strat)
}

// placed is a Placer's placement standing in as the phase-one partition.
type placed []int

func (placed) Name() string { return "placed" }
func (pl placed) Partition(_ *taskgraph.Graph, k int) (*partition.Result, error) {
	return &partition.Result{Assign: pl, K: k}, nil
}

// MapQuotient is the two phases proper, whatever strat can also do:
// partition, quotient, strat.Map on the quotient, groups expanded to a
// per-task placement. The LB-database paths call it directly — a load
// balancer always maps the groups it was handed.
func MapQuotient(g *taskgraph.Graph, t topology.Topology, part partition.Partitioner, strat Strategy) (*PipelineResult, error) {
	pr, err := part.Partition(g, t.Nodes())
	if err != nil {
		return nil, err
	}
	q, err := partition.Quotient(g, pr)
	if err != nil {
		return nil, err
	}
	m, err := strat.Map(q, t)
	if err != nil {
		return nil, err
	}
	placement := make([]int, g.NumVertices())
	for v, grp := range pr.Assign {
		placement[v] = m[grp]
	}
	// Load is summed per processor, in processor order: the placement read
	// as a partition with one group per processor.
	byProc := &partition.Result{Assign: placement, K: t.Nodes()}
	return &PipelineResult{
		Placement:     placement,
		Groups:        pr,
		QuotientGraph: q,
		GroupMapping:  m,
		HopsPerByte:   HopsPerByte(q, t, m),
		EdgeCut:       pr.EdgeCut(g),
		Imbalance:     byProc.Imbalance(g),
	}, nil
}
