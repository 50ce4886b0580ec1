// Package baselines implements two of the mapping approaches the paper's
// related-work section (§2) surveys, so TopoLB can be compared against
// them:
//
//   - simulated annealing over processor swaps, after Bollinger &
//     Midkiff's process annealing [1988]
//   - space-filling-curve (snake) mapping, the classic structured-grid
//     practice
//
// Annealing produces good mappings but — as the paper argues — takes
// orders of magnitude longer than the heuristics; the extras tables
// quantify that trade-off.
package baselines

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/taskgraph"
	"repro/internal/topology"
)

// Annealing minimizes hop-bytes by simulated annealing over processor
// swaps (Bollinger & Midkiff's process-annealing phase). The temperature
// starts at a scale set by sampling random swap deltas and decays
// geometrically by annealCooling over annealLevels temperature levels;
// each level attempts annealMovesPerProc·p swaps, accepting uphill moves
// with probability exp(−Δ/T).
type Annealing struct {
	// Seed drives the random walk.
	Seed int64
}

// Annealing's schedule.
const (
	annealLevels       = 60
	annealMovesPerProc = 40
	annealCooling      = 0.92
)

// Name implements core.Strategy.
func (Annealing) Name() string { return "Annealing" }

// Map implements core.Strategy.
func (s Annealing) Map(g *taskgraph.Graph, t topology.Topology) (core.Mapping, error) {
	if err := core.CheckSizes(g, t); err != nil {
		return nil, err
	}
	n := t.Nodes()
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

	for lvl := 0; lvl < annealLevels; lvl++ {
		for mv := 0; mv < annealMovesPerProc*n; mv++ {
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
		temp *= annealCooling
	}
	return best, nil
}

// Snake is the classic structured-grid practice: tasks are assumed to
// form a logical grid of TaskDims (row-major numbering, as the taskgraph
// pattern builders produce), and both the task grid and the Coordinated
// machine are linearized boustrophedon ("snake") order so consecutive —
// hence heavily communicating — tasks land on adjacent processors. A
// strong baseline on mesh-shaped workloads, inapplicable elsewhere.
type Snake struct {
	// TaskDims is the logical task grid shape; its volume must equal the
	// task count.
	TaskDims []int
}

// Name implements core.Strategy.
func (Snake) Name() string { return "Snake" }

// Map implements core.Strategy.
func (s Snake) Map(g *taskgraph.Graph, t topology.Topology) (core.Mapping, error) {
	if err := core.CheckSizes(g, t); err != nil {
		return nil, err
	}
	co, ok := t.(topology.Coordinated)
	if !ok {
		return nil, fmt.Errorf("baselines: Snake requires a mesh/torus machine, got %s", t.Name())
	}
	vol := 1
	for _, d := range s.TaskDims {
		if d < 1 {
			return nil, fmt.Errorf("baselines: bad task dimension %d", d)
		}
		vol *= d
	}
	if vol != g.NumVertices() {
		return nil, fmt.Errorf("baselines: task dims %v have volume %d, graph has %d tasks",
			s.TaskDims, vol, g.NumVertices())
	}
	taskOrder := snakeOrder(s.TaskDims)
	// snakeOrder yields row-major ranks, which is exactly the Coordinated
	// rank convention.
	procOrder := snakeOrder(co.Dims())
	m := make(core.Mapping, len(taskOrder))
	for i, task := range taskOrder {
		m[task] = procOrder[i]
	}
	return m, nil
}

// snakeOrder linearizes a row-major grid in boustrophedon order: the last
// dimension sweeps back and forth as outer dimensions advance, so
// consecutive ranks are always grid neighbors.
func snakeOrder(dims []int) []int {
	n := 1
	strides := make([]int, len(dims))
	for i := len(dims) - 1; i >= 0; i-- {
		strides[i] = n
		n *= dims[i]
	}
	order := make([]int, 0, n)
	coord := make([]int, len(dims))
	dir := make([]int, len(dims))
	for i := range dir {
		dir[i] = 1
	}
	for {
		rank := 0
		for i, c := range coord {
			rank += c * strides[i]
		}
		order = append(order, rank)
		// Advance the deepest dimension in its current direction,
		// reflecting at the ends like a plotter.
		i := len(dims) - 1
		for i >= 0 {
			coord[i] += dir[i]
			if coord[i] >= 0 && coord[i] < dims[i] {
				break
			}
			coord[i] -= dir[i] // stay, flip, carry outward
			dir[i] = -dir[i]
			i--
		}
		if i < 0 {
			return order
		}
	}
}
