package core

import (
	"math/bits"

	"repro/internal/taskgraph"
	"repro/internal/topology"
)

// TopoCentLB is the simpler comparator strategy (§4.5): the first cycle
// places the most-communicating task on the most central free processor;
// each subsequent cycle picks the task with the maximum total
// communication to already-placed tasks (ties to the lowest id) and
// places it on the free processor where the first-order communication
// cost — hop-bytes to placed neighbors — is minimal. Equivalent to Baba et
// al.'s (P3,P4) heuristic. The task is picked by scanning the unplaced
// tasks, Θ(p) a cycle, the same as the scan over free processors that
// follows it, so the total running time stays O(p·|Et|).
type TopoCentLB struct{}

// Name implements Strategy.
func (TopoCentLB) Name() string { return "TopoCentLB" }

// Map implements Strategy.
func (TopoCentLB) Map(g *taskgraph.Graph, t topology.Topology) (Mapping, error) {
	if err := CheckSizes(g, t); err != nil {
		return nil, err
	}
	n := t.Nodes()
	d := topology.NewDists(t)
	m := make(Mapping, n)
	for i := range m {
		m[i] = -1
	}
	procFree := make([]bool, n)
	for p := range procFree {
		procFree[p] = true
	}

	// First cycle: the most-communicating task goes to the most central
	// free processor (minimum total distance to the rest of the machine).
	first := 0
	for v := 1; v < n; v++ {
		if g.WeightedDegree(v) > g.WeightedDegree(first) {
			first = v
		}
	}
	totalDist := make([]float64, n)
	topology.TotalDistances(t, totalDist)
	center := 0
	for p := 1; p < n; p++ {
		if totalDist[p] < totalDist[center] {
			center = p
		}
	}
	m[first] = center
	procFree[center] = false

	// Remaining tasks keyed by communication with already-placed tasks.
	// Swap-removal reorders unplaced, so ties are broken by id explicitly.
	key := make([]float64, n)
	unplaced := make([]int32, 0, n-1)
	for v := 0; v < n; v++ {
		if v != first {
			unplaced = append(unplaced, int32(v))
		}
	}
	adj, w := g.Neighbors(first)
	for i, u := range adj {
		key[u] = w[i]
	}

	// The placed neighbours of the task being placed, in edge order: the
	// edge weights, and the neighbours' labels on a labelled machine, their
	// processors otherwise.
	l := d.Labels()
	var placedAt []int
	var placedL []uint64
	var placedW []float64
	for len(unplaced) > 0 {
		// The unplaced task with the largest key, ties to the lowest id.
		bi, bv := 0, unplaced[0]
		bk := key[bv]
		for i, v := range unplaced {
			if k := key[v]; k > bk || !(bk > k) && v < bv {
				bi, bv, bk = i, v, k
			}
		}
		tk := int(bv)
		last := len(unplaced) - 1
		unplaced[bi] = unplaced[last]
		unplaced = unplaced[:last]
		// Place tk on the free processor minimizing the first-order cost:
		// hop-bytes to its already-placed neighbors, summed in edge order;
		// ties go to the lowest processor.
		adj, w := g.Neighbors(tk)
		placedAt, placedL, placedW = placedAt[:0], placedL[:0], placedW[:0]
		for i, u := range adj {
			if pu := m[u]; pu >= 0 {
				placedW = append(placedW, w[i])
				if l != nil {
					placedL = append(placedL, l[pu])
				} else {
					placedAt = append(placedAt, pu)
				}
			}
		}
		pk, best := -1, 0.0
		for p, free := range procFree {
			if !free {
				continue
			}
			cost := 0.0
			if l != nil {
				lp := l[p]
				for k, x := range placedL {
					cost += float64(placedW[k] * float64(bits.OnesCount64(lp^x)))
				}
			} else {
				for k, pu := range placedAt {
					cost += float64(placedW[k] * float64(d.Dist(p, pu)))
				}
			}
			if pk < 0 || cost < best {
				pk, best = p, cost
			}
		}
		m[tk] = pk
		procFree[pk] = false
		// The placement raises the keys of tk's still-unplaced neighbors.
		for i, u := range adj {
			if m[u] < 0 {
				key[u] += w[i]
			}
		}
	}
	return m, nil
}
