package charm

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/lbdb"
	"repro/internal/partition"
	"repro/internal/topology"
)

// Report summarizes one strategy's result in simulation mode.
type Report struct {
	Strategy string
	// HopBytes and HopsPerByte are measured on the quotient (group-level)
	// graph, as the paper reports them.
	HopBytes    float64
	HopsPerByte float64
	// MaxProcLoad and Imbalance describe compute balance of the chare
	// placement (max processor load and its ratio to the average).
	MaxProcLoad float64
	Imbalance   float64
	// Migrations counts chares whose processor differs from the recorded
	// placement.
	Migrations int
	// Placement is the resulting chare → processor assignment.
	Placement []int
}

// SimulateStep evaluates a mapping strategy on a dumped LB database — the
// paper's +LBSim mechanism. Different strategies can be compared on
// exactly the same load scenario.
func SimulateStep(db *lbdb.Database, topo topology.Topology, part partition.Partitioner, strat core.Strategy) (*Report, error) {
	g, err := db.TaskGraph()
	if err != nil {
		return nil, err
	}
	p := topo.Nodes()
	if p != db.NumProcs {
		return nil, fmt.Errorf("charm: database recorded %d processors, topology has %d", db.NumProcs, p)
	}
	res, err := core.MapQuotient(g, topo, part, strat)
	if err != nil {
		return nil, err
	}
	placement := res.Placement
	rep := &Report{
		Strategy:    strat.Name(),
		HopBytes:    core.HopBytes(res.QuotientGraph, topo, res.GroupMapping),
		HopsPerByte: res.HopsPerByte,
		MaxProcLoad: slices.Max((&partition.Result{Assign: placement, K: p}).GroupLoads(g)),
		Imbalance:   res.Imbalance,
		Placement:   placement,
	}
	old := db.Placement()
	for v := range placement {
		if placement[v] != old[v] {
			rep.Migrations++
		}
	}
	return rep, nil
}
