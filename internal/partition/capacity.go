package partition

import (
	"fmt"
	"sort"

	"repro/internal/taskgraph"
)

// CapacityPartition splits g into exactly len(targets) groups where
// group i receives exactly targets[i] vertices — the constrained form
// the hierarchical mapper needs, where each group must fill a fixed
// child capacity. The split minimizes edge cut with the ordinary
// slack-balanced multilevel machinery, then repairs the counts with a
// deterministic least-attachment move pass: every surplus vertex of an
// over-full group migrates to the under-full group it communicates with
// most (ties toward the lower group index), or to the neediest group
// when it has no under-full neighbors.
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
// size matches its target. Candidates leave their donor in order of
// least net attachment (external pull toward an under-full group minus
// internal pull), so the cut grows as little as the count constraint
// allows; every choice breaks ties toward the lower index, keeping the
// repair deterministic.
func repairCounts(g *taskgraph.Graph, r *Result, targets []int) {
	sizes := r.GroupSizes()
	// attachment returns v's edge weight into group q.
	attachment := func(v, q int) float64 {
		adj, w := g.Neighbors(v)
		sum := 0.0
		for i, u := range adj {
			if r.Assign[u] == q {
				sum += w[i]
			}
		}
		return sum
	}
	// bestUnderfull returns the under-full group v communicates with
	// most, or -1 when v has no under-full neighbor group. Per-group
	// sums accumulate over (group, weight) pairs sorted by group, so the
	// winner (ties toward the lower group index) is deterministic.
	bestUnderfull := func(v int) int {
		adj, w := g.Neighbors(v)
		type gw struct {
			q int
			w float64
		}
		var pairs []gw
		for i, u := range adj {
			q := r.Assign[u]
			if sizes[q] < targets[q] {
				pairs = append(pairs, gw{q, w[i]})
			}
		}
		sort.Slice(pairs, func(i, j int) bool { return pairs[i].q < pairs[j].q })
		best, bestW := -1, 0.0
		for i := 0; i < len(pairs); {
			j := i
			sum := 0.0
			for ; j < len(pairs) && pairs[j].q == pairs[i].q; j++ {
				sum += pairs[j].w
			}
			if best < 0 || sum > bestW {
				best, bestW = pairs[i].q, sum
			}
			i = j
		}
		return best
	}
	// neediest returns the group with the largest remaining deficit
	// (ties toward the lower index).
	neediest := func() int {
		best, bestDef := -1, 0
		for q := range targets {
			if def := targets[q] - sizes[q]; def > bestDef {
				best, bestDef = q, def
			}
		}
		return best
	}
	for d := 0; d < r.K; d++ {
		if sizes[d] <= targets[d] {
			continue
		}
		// Rank d's vertices by how cheaply they can leave: external pull
		// toward some under-full group minus internal pull, descending.
		type cand struct {
			v     int
			score float64
		}
		var cands []cand
		for v, q := range r.Assign {
			if q != d {
				continue
			}
			ext := 0.0
			if b := bestUnderfull(v); b >= 0 {
				ext = attachment(v, b)
			}
			cands = append(cands, cand{v, ext - attachment(v, d)})
		}
		sort.Slice(cands, func(i, j int) bool {
			if cands[i].score > cands[j].score {
				return true
			}
			if cands[j].score > cands[i].score {
				return false
			}
			return cands[i].v < cands[j].v
		})
		for _, c := range cands {
			if sizes[d] == targets[d] {
				break
			}
			to := bestUnderfull(c.v)
			if to < 0 {
				to = neediest()
			}
			if to < 0 {
				break // no deficit anywhere; nothing left to repair
			}
			r.Assign[c.v] = to
			sizes[d]--
			sizes[to]++
		}
	}
}
