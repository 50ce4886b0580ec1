package topomap

import (
	"repro/internal/core"
	"repro/internal/partition"
	"repro/internal/topology"
)

// Partitioner groups tasks into balanced clusters (phase one of the
// paper's two-phase approach).
type Partitioner = partition.Partitioner

// Multilevel is the METIS-style multilevel k-way partitioner.
type Multilevel = partition.Multilevel

// GreedyPartitioner balances compute load ignoring communication
// (GreedyLB).
type GreedyPartitioner = partition.Greedy

// Partition is a k-way grouping of tasks.
type Partition = partition.Result

// Quotient builds the coalesced p-vertex graph of a partition.
func Quotient(g *TaskGraph, r *Partition) (*TaskGraph, error) {
	return partition.Quotient(g, r)
}

// PipelineResult reports the two-phase mapping of a task graph with more
// tasks than processors.
type PipelineResult = core.PipelineResult

// MapTasks runs the paper's full two-phase pipeline: partition g into one
// group per processor of t (topology-obliviously, balancing load), build
// the quotient graph, and map it with strat. A nil part defaults to the
// multilevel partitioner; a nil strat defaults to TopoLB with refinement.
func MapTasks(g *TaskGraph, t topology.Topology, part Partitioner, strat Strategy) (*PipelineResult, error) {
	return core.MapTasks(g, t, part, strat)
}

// RCBPartitioner is recursive coordinate bisection for spatially
// decomposed workloads; supply per-task coordinates.
type RCBPartitioner = partition.RCB
