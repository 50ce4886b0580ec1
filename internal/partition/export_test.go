package partition

import "repro/internal/taskgraph"

// partitionCounted is ml.Partition with the arena's instrumentation
// switched on: it returns the tree nodes FM's selection and updates
// touched, summed over every worker — a count, not a timing, so tests can
// pin it — and shows observe (when not nil) every fmRefineBisection input,
// in try order.
func partitionCounted(ml Multilevel, g *taskgraph.Graph, k int, observe func(m *CGraph, side []int8, target, total float64)) (*Result, int64, error) {
	ar := &arena{observeFM: observe}
	r, err := ml.partition(g, k, ar)
	nodes := ar.try0.fmNodes
	for _, tr := range ar.workers {
		if tr != &ar.try0 {
			nodes += tr.fmNodes
		}
	}
	return r, nodes, err
}
