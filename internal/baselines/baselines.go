// Package baselines implements the mapping algorithms the paper's related
// work section (§2) surveys, so TopoLB can be compared against the
// approaches it was designed to improve on:
//
//   - Bokhari's pairwise-exchange algorithm on the edge-adjacency metric
//     with probabilistic jumps [Bokhari 1981]
//   - simulated annealing over processor swaps, after Bollinger &
//     Midkiff's process annealing [1988]
//   - a genetic algorithm with PMX crossover and swap mutation, after
//     Arunkumar & Chockalingam [1992] and Orduña et al. [2001]
//   - space-filling-curve (snake) mapping, the classic structured-grid
//     practice
//   - Allocation by Recursive Mincut (ARM) for hypercubes, after Ercal,
//     Ramanujam & Sadayappan [1988]
//
// The physical-optimization methods (annealing, genetic) produce good
// mappings but — as the paper argues — take orders of magnitude longer
// than the heuristics; the ablation experiments quantify that trade-off.
package baselines

import (
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/taskgraph"
	"repro/internal/topology"
)

// Bokhari is the 1981 pairwise-exchange mapper. Its quality metric is the
// number of task-graph edges whose endpoints land on adjacent processors
// (to be maximized). Each phase tries all pairwise exchanges, keeping any
// that improve the metric; when no exchange helps, a probabilistic jump
// perturbs the mapping and the best mapping seen is retained.
type Bokhari struct {
	// Jumps is the number of probabilistic restarts; zero means 4.
	Jumps int
	// Seed drives jump randomness.
	Seed int64
}

// Name implements core.Strategy.
func (Bokhari) Name() string { return "Bokhari" }

// Map implements core.Strategy.
func (s Bokhari) Map(g *taskgraph.Graph, t topology.Topology) (core.Mapping, error) {
	if err := core.CheckSizes(g, t); err != nil {
		return nil, err
	}
	jumps := s.Jumps
	if jumps <= 0 {
		jumps = 4
	}
	rng := rand.New(rand.NewSource(s.Seed))
	d := topology.NewDists(t)
	n := t.Nodes()
	m := core.Mapping(rng.Perm(n))
	best := m.Clone()
	bestScore := cardinality(g, &d, best)
	for j := 0; j <= jumps; j++ {
		improveCardinality(g, &d, m)
		if sc := cardinality(g, &d, m); sc > bestScore {
			bestScore = sc
			best = m.Clone()
		}
		// Probabilistic jump: swap a handful of random pairs.
		for k := 0; k < n/4+1; k++ {
			a, b := rng.Intn(n), rng.Intn(n)
			m[a], m[b] = m[b], m[a]
		}
	}
	return best, nil
}

// cardinality counts task edges whose endpoint processors are adjacent
// (distance <= 1) — Bokhari's objective.
func cardinality(g *taskgraph.Graph, d *topology.Dists, m core.Mapping) int {
	score := 0
	for v := 0; v < g.NumVertices(); v++ {
		adj, _ := g.Neighbors(v)
		for _, u := range adj {
			if int32(v) < u && d.Dist(m[v], m[u]) <= 1 {
				score++
			}
		}
	}
	return score
}

// improveCardinality performs greedy pairwise exchanges until a full pass
// finds no improving swap.
func improveCardinality(g *taskgraph.Graph, d *topology.Dists, m core.Mapping) {
	n := len(m)
	for {
		improved := false
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				before := localCardinality(g, d, m, a) + localCardinality(g, d, m, b)
				m[a], m[b] = m[b], m[a]
				after := localCardinality(g, d, m, a) + localCardinality(g, d, m, b)
				if after <= before {
					m[a], m[b] = m[b], m[a] // revert
				} else {
					improved = true
				}
			}
		}
		if !improved {
			return
		}
	}
}

func localCardinality(g *taskgraph.Graph, d *topology.Dists, m core.Mapping, v int) int {
	adj, _ := g.Neighbors(v)
	score := 0
	for _, u := range adj {
		if d.Dist(m[v], m[int(u)]) <= 1 {
			score++
		}
	}
	return score
}

// Annealing minimizes hop-bytes by simulated annealing over processor
// swaps (Bollinger & Midkiff's process-annealing phase). The temperature
// starts at a scale set by sampling random swap deltas and decays
// geometrically; each temperature level attempts MovesPerLevel swaps,
// accepting uphill moves with probability exp(−Δ/T).
type Annealing struct {
	// Seed drives the random walk.
	Seed int64
	// Levels is the number of temperature steps; zero means 60.
	Levels int
	// MovesPerLevel is attempted swaps per level; zero means 40·p.
	MovesPerLevel int
	// Cooling is the geometric decay factor; zero means 0.92.
	Cooling float64
}

// Name implements core.Strategy.
func (Annealing) Name() string { return "Annealing" }

// Map implements core.Strategy.
func (s Annealing) Map(g *taskgraph.Graph, t topology.Topology) (core.Mapping, error) {
	if err := core.CheckSizes(g, t); err != nil {
		return nil, err
	}
	n := t.Nodes()
	levels := s.Levels
	if levels <= 0 {
		levels = 60
	}
	moves := s.MovesPerLevel
	if moves <= 0 {
		moves = 40 * n
	}
	cooling := s.Cooling
	if cooling <= 0 || cooling >= 1 {
		cooling = 0.92
	}
	rng := rand.New(rand.NewSource(s.Seed))
	dist := topology.NewDists(t)
	m := core.Mapping(rng.Perm(n))
	cur := core.HopBytes(g, t, m)
	best := m.Clone()
	bestHB := cur
	swapDelta := func(a, b int) float64 {
		adjA, wA := g.Neighbors(a)
		adjB, wB := g.Neighbors(b)
		return core.SwapDelta(&dist, m, m[a], m[b], a, adjA, wA, b, adjB, wB)
	}

	// Initial temperature: mean |Δ| of random swaps, so roughly half of
	// uphill moves are accepted at the start.
	temp := 0.0
	for i := 0; i < 50; i++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a == b {
			continue
		}
		temp += math.Abs(swapDelta(a, b))
	}
	temp = temp/50 + 1e-9

	for lvl := 0; lvl < levels; lvl++ {
		for mv := 0; mv < moves; mv++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if a == b {
				continue
			}
			d := swapDelta(a, b)
			if d <= 0 || rng.Float64() < math.Exp(-d/temp) {
				m[a], m[b] = m[b], m[a]
				cur += d
				if cur < bestHB {
					bestHB = cur
					copy(best, m)
				}
			}
		}
		temp *= cooling
	}
	return best, nil
}
