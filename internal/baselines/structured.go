package baselines

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/taskgraph"
	"repro/internal/topology"
)

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
	procOrder := snakeOrderCoordinated(co)
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

func snakeOrderCoordinated(co topology.Coordinated) []int {
	dims := co.Dims()
	order := snakeOrder(dims)
	// snakeOrder already yields row-major ranks, which is exactly the
	// Coordinated rank convention.
	return order
}

// ARM is Allocation by Recursive Mincut (Ercal, Ramanujam & Sadayappan):
// the task graph is recursively bisected with balanced min-cuts, and the
// k-th bisection decides the k-th address bit of the hypercube processor
// each task receives — subcubes of the machine host tightly communicating
// task clusters. Defined for Hypercube machines only.
type ARM struct {
	// Seed drives the randomized bisection.
	Seed int64
}

// Name implements core.Strategy.
func (ARM) Name() string { return "ARM" }

// Map implements core.Strategy.
func (s ARM) Map(g *taskgraph.Graph, t topology.Topology) (core.Mapping, error) {
	if err := core.CheckSizes(g, t); err != nil {
		return nil, err
	}
	h, ok := t.(*topology.Hypercube)
	if !ok {
		return nil, fmt.Errorf("baselines: ARM requires a hypercube machine, got %s", t.Name())
	}
	n := g.NumVertices()
	m := make(core.Mapping, n)
	tasks := make([]int, n)
	for i := range tasks {
		tasks[i] = i
	}
	rng := rand.New(rand.NewSource(s.Seed))
	s.assign(g, tasks, h.Dim(), 0, m, rng)
	return m, nil
}

// assign recursively bisects the task set; bit is the hypercube dimension
// being decided, addr the address prefix accumulated so far.
func (s ARM) assign(g *taskgraph.Graph, tasks []int, bitsLeft, addr int, m core.Mapping, rng *rand.Rand) {
	if bitsLeft == 0 {
		m[tasks[0]] = addr
		return
	}
	side := mincutBisect(g, tasks, rng)
	var zero, one []int
	for i, task := range tasks {
		if side[i] == 0 {
			zero = append(zero, task)
		} else {
			one = append(one, task)
		}
	}
	s.assign(g, zero, bitsLeft-1, addr, m, rng)
	s.assign(g, one, bitsLeft-1, addr|1<<uint(bitsLeft-1), m, rng)
}

// mincutBisect splits tasks into two equal halves, minimizing the weight
// of crossing edges by greedy growth plus exchange refinement. Returns a
// 0/1 side per position in tasks.
func mincutBisect(g *taskgraph.Graph, tasks []int, rng *rand.Rand) []int8 {
	n := len(tasks)
	pos := make(map[int]int, n)
	for i, task := range tasks {
		pos[task] = i
	}
	// Grow side 0 from a random seed following strongest connections.
	side := make([]int8, n)
	for i := range side {
		side[i] = 1
	}
	conn := make([]float64, n)
	seed := rng.Intn(n)
	side[seed] = 0
	addConn := func(i int) {
		adj, w := g.Neighbors(tasks[i])
		for k, u := range adj {
			if j, ok := pos[int(u)]; ok && side[j] == 1 {
				conn[j] += w[k]
			}
		}
	}
	addConn(seed)
	for count := 1; count < n/2; count++ {
		best, bestConn := -1, -1.0
		for i := range side {
			if side[i] == 1 && conn[i] > bestConn {
				best, bestConn = i, conn[i]
			}
		}
		side[best] = 0
		addConn(best)
	}
	// Exchange refinement: swap any 0/1 pair that reduces the cut.
	gain := func(i int) float64 {
		ext, internal := 0.0, 0.0
		adj, w := g.Neighbors(tasks[i])
		for k, u := range adj {
			if j, ok := pos[int(u)]; ok {
				if side[j] == side[i] {
					internal += w[k]
				} else {
					ext += w[k]
				}
			}
		}
		return ext - internal
	}
	for pass := 0; pass < 4; pass++ {
		improved := false
		for i := 0; i < n; i++ {
			if side[i] != 0 {
				continue
			}
			for j := 0; j < n; j++ {
				if side[j] != 1 {
					continue
				}
				cross := 2 * g.EdgeWeight(tasks[i], tasks[j])
				if gain(i)+gain(j)-cross > 1e-12 {
					side[i], side[j] = 1, 0
					improved = true
					break
				}
			}
		}
		if !improved {
			break
		}
	}
	return side
}
