// Package partition groups the tasks of a task graph into p balanced
// clusters — the first phase of the paper's two-phase approach (§4). The
// paper uses METIS or Charm++'s topology-oblivious greedy strategies here;
// this package provides both families from scratch:
//
//   - Multilevel: a Karypis–Kumar style multilevel k-way partitioner
//     (heavy-edge-matching coarsening, recursive-bisection initial
//     partitioning, Fiduccia–Mattheyses boundary refinement). This is the
//     METIS substitute and the default.
//   - Greedy: a GreedyLB-style longest-processing-time partitioner that
//     balances compute load while ignoring communication.
//
// The quotient (coalesced) graph of a partition — one vertex per group,
// edge weights summing inter-group bytes — is what the mapping phase
// consumes.
package partition

import (
	"fmt"

	"repro/internal/taskgraph"
)

// Result is a k-way partition of a task graph: Assign[v] is the group of
// vertex v, in [0, K).
type Result struct {
	Assign []int
	K      int
}

// Partitioner produces balanced k-way partitions.
type Partitioner interface {
	// Partition splits g into k non-empty groups. It fails if k exceeds
	// the vertex count or k < 1.
	Partition(g *taskgraph.Graph, k int) (*Result, error)
	// Name identifies the strategy in reports.
	Name() string
}

// Validate checks that r is a well-formed partition of g: every vertex
// assigned to a group in range and no group empty.
func (r *Result) Validate(g *taskgraph.Graph) error {
	if len(r.Assign) != g.NumVertices() {
		return fmt.Errorf("partition: %d assignments for %d vertices", len(r.Assign), g.NumVertices())
	}
	if r.K < 1 {
		return fmt.Errorf("partition: k = %d", r.K)
	}
	seen := make([]bool, r.K)
	for v, p := range r.Assign {
		if p < 0 || p >= r.K {
			return fmt.Errorf("partition: vertex %d in group %d, out of [0,%d)", v, p, r.K)
		}
		seen[p] = true
	}
	for p, ok := range seen {
		if !ok {
			return fmt.Errorf("partition: group %d is empty", p)
		}
	}
	return nil
}

// GroupLoads returns the total vertex weight of each group.
func (r *Result) GroupLoads(g *taskgraph.Graph) []float64 {
	loads := make([]float64, r.K)
	for v, p := range r.Assign {
		loads[p] += g.VertexWeight(v)
	}
	return loads
}

// GroupSizes returns the vertex count of each group.
func (r *Result) GroupSizes() []int {
	sizes := make([]int, r.K)
	for _, p := range r.Assign {
		sizes[p]++
	}
	return sizes
}

// EdgeCut returns the total weight of edges crossing group boundaries —
// the classic partition-quality metric (communication that cannot stay
// intra-processor).
func (r *Result) EdgeCut(g *taskgraph.Graph) float64 {
	cut := 0.0
	for v := 0; v < g.NumVertices(); v++ {
		adj, w := g.Neighbors(v)
		for i, u := range adj {
			if r.Assign[v] != r.Assign[u] {
				cut += w[i]
			}
		}
	}
	return cut / 2
}

// Imbalance returns the heaviest group's load over the mean group load —
// 1.0 is perfect balance — and 0 for a graph that carries no load. The
// mean is taken over the group loads in group order.
func (r *Result) Imbalance(g *taskgraph.Graph) float64 {
	maxLoad, total := 0.0, 0.0
	for _, l := range r.GroupLoads(g) {
		total += l
		if l > maxLoad {
			maxLoad = l
		}
	}
	if total <= 0 {
		return 0
	}
	return maxLoad / (total / float64(r.K))
}

// Quotient builds the coalesced task graph of a partition: one vertex per
// group with summed computation weight; edge weights sum all inter-group
// communication. This is the p-vertex graph handed to the mapping phase.
func Quotient(g *taskgraph.Graph, r *Result) (*taskgraph.Graph, error) {
	if err := r.Validate(g); err != nil {
		return nil, err
	}
	b := taskgraph.NewBuilder(r.K)
	loads := r.GroupLoads(g)
	for p, l := range loads {
		b.SetVertexWeight(p, l)
	}
	// One sum per group pair, each in fine-edge order from 0: the order a
	// Builder fed every cut edge would have summed them in.
	sums := make(map[uint64]float64)
	xadj, adjncy, adjwgt := g.CSR()
	for v, p := range r.Assign {
		for i := xadj[v]; i < xadj[v+1]; i++ {
			if u := int(adjncy[i]); v < u && p != r.Assign[u] {
				lo, hi := min(p, r.Assign[u]), max(p, r.Assign[u])
				sums[uint64(lo)<<32|uint64(hi)] += adjwgt[i]
			}
		}
	}
	b.Grow(len(sums))
	//lint:ignore determinism each pair is added once, so nothing is summed in map order, and Build sorts every row by neighbour
	for pq, s := range sums {
		b.AddEdge(int(pq>>32), int(uint32(pq)), s)
	}
	return b.Build(fmt.Sprintf("quotient[%s,k=%d]", g.Name(), r.K)), nil
}

// checkArgs validates common Partition arguments.
func checkArgs(g *taskgraph.Graph, k int) error {
	if k < 1 {
		return fmt.Errorf("partition: k must be >= 1, got %d", k)
	}
	if k > g.NumVertices() {
		return fmt.Errorf("partition: k = %d exceeds %d vertices", k, g.NumVertices())
	}
	return nil
}

// identity returns the n==k bijective partition.
func identity(n int) *Result {
	a := make([]int, n)
	for i := range a {
		a[i] = i
	}
	return &Result{Assign: a, K: n}
}
