package partition

import (
	"fmt"
	"slices"

	"repro/internal/taskgraph"
)

// CapacityPartition splits g into exactly len(targets) groups where
// group i receives exactly targets[i] vertices — the constrained form
// the hierarchical mapper (each group fills a fixed child capacity) and
// the hybrid block mapper (one equal group per block) need. The split
// minimizes edge cut with the ordinary slack-balanced multilevel
// machinery, then repairCounts makes the counts exact: each over-full
// group in turn gives up its least-loss task, rescored after every move,
// to the under-full group that task communicates with most.
//
// Targets are vertex counts, not weights: the hierarchical mapper's
// downstream leaf kernels place one task per processor slot, so counts
// are the capacity that must match. On uniformly weighted graphs the
// multilevel phase already lands within its slack of the targets and
// the repair pass moves only a handful of vertices.
func CapacityPartition(g *taskgraph.Graph, targets []int, ml Multilevel) (*Result, error) {
	k := len(targets)
	n := g.NumVertices()
	if err := checkTargets(targets, n); err != nil {
		return nil, err
	}
	if k == 1 {
		return &Result{Assign: make([]int, n), K: 1}, nil
	}
	if k == n {
		return identity(n), nil
	}
	r, err := ml.Partition(g, k)
	if err != nil {
		return nil, err
	}
	repairCounts(g, r, targets)
	return r, nil
}

// checkTargets reports whether targets are exact group sizes for n
// tasks: at least one group, each of at least one task, summing to n.
func checkTargets(targets []int, n int) error {
	if len(targets) < 1 {
		return fmt.Errorf("partition: capacity partition needs at least one target")
	}
	sum := 0
	for i, t := range targets {
		if t < 1 {
			return fmt.Errorf("partition: capacity target %d is %d, must be >= 1", i, t)
		}
		sum += t
	}
	if sum != n {
		return fmt.Errorf("partition: capacity targets sum to %d but there are %d tasks", sum, n)
	}
	return nil
}

// repairCounts moves vertices out of over-full groups until every group
// holds its target. Donors are visited in index order. While a donor is
// over-full, each of its members is scored by its weight into the donor
// minus its largest summed weight into any one under-full group (ties
// toward the lower group index; a member with no under-full neighbour
// scores against 0 and targets the lowest-index under-full group), and
// the first member with the least score moves. Scores are exact
// recomputations: a move rescores only the members adjacent to the moved
// vertex, and every member when the receiving group fills, because the
// set of under-full groups then changes.
func repairCounts(g *taskgraph.Graph, r *Result, targets []int) {
	assign, sizes := r.Assign, r.GroupSizes()
	acc := make([]float64, len(targets)) // per-group weight of one vertex
	seen := make([]bool, len(targets))
	var touched, members []int
	var loss []float64
	var dest []int
	first := 0 // the lowest-index under-full group
	for d := range targets {
		if sizes[d] <= targets[d] {
			continue
		}
		if loss == nil {
			loss, dest = make([]float64, len(assign)), make([]int, len(assign))
		}
		score := func(v int) {
			adj, w := g.Neighbors(v)
			own := 0.0
			for i, u := range adj {
				if q := assign[u]; q == d {
					own += w[i]
				} else if sizes[q] < targets[q] {
					if !seen[q] {
						seen[q] = true
						touched = append(touched, q)
					}
					acc[q] += w[i]
				}
			}
			to, best := -1, -1.0
			for _, q := range touched {
				//lint:ignore floatcmp exact tie detection: equal sums of the same weights go to the lower group index
				if acc[q] > best || (acc[q] == best && q < to) {
					to, best = q, acc[q]
				}
				acc[q], seen[q] = 0, false
			}
			touched = touched[:0]
			if to < 0 {
				to, best = first, 0
			}
			loss[v], dest[v] = own-best, to
		}
		members = members[:0]
		for v, q := range assign {
			if q == d {
				members = append(members, v)
			}
		}
		rescoreAll := true
		for sizes[d] > targets[d] {
			if rescoreAll {
				for sizes[first] >= targets[first] {
					first++
				}
				for _, v := range members {
					score(v)
				}
			}
			bi := 0
			for i, v := range members {
				if loss[v] < loss[members[bi]] {
					bi = i
				}
			}
			v, to := members[bi], dest[members[bi]]
			members = slices.Delete(members, bi, bi+1)
			assign[v] = to
			sizes[d]--
			sizes[to]++
			// A group that fills leaves the under-full set every score reads.
			if rescoreAll = sizes[to] == targets[to]; !rescoreAll {
				adj, _ := g.Neighbors(v)
				for _, u := range adj {
					if assign[u] == d {
						score(int(u))
					}
				}
			}
		}
	}
}
