package baselines

import (
	"sort"

	"repro/internal/core"
	"repro/internal/taskgraph"
	"repro/internal/topology"
)

// LeeAggarwal is the 1987 two-phase mapper: a step-by-step greedy initial
// assignment followed by an improvement phase. The first step pairs the
// most-communicating task with a processor of the most similar degree;
// subsequent placements minimize an objective combining communication
// cost to placed neighbors with a look-ahead penalty for the communication
// still unplaced (weighted by the chosen processor's remaining free
// neighborhood). The improvement phase is pairwise exchange on hop-bytes.
type LeeAggarwal struct {
	// ImprovePasses bounds the exchange phase; zero means 4.
	ImprovePasses int
}

// Name implements core.Strategy.
func (LeeAggarwal) Name() string { return "LeeAggarwal" }

// Map implements core.Strategy.
func (s LeeAggarwal) Map(g *taskgraph.Graph, t topology.Topology) (core.Mapping, error) {
	if err := core.CheckSizes(g, t); err != nil {
		return nil, err
	}
	n := t.Nodes()
	m := make(core.Mapping, n)
	for i := range m {
		m[i] = -1
	}
	procFree := make([]bool, n)
	for p := range procFree {
		procFree[p] = true
	}

	// Step 1: the most-communicating task on the processor whose degree
	// is closest to the task's.
	first := 0
	for v := 1; v < n; v++ {
		if g.WeightedDegree(v) > g.WeightedDegree(first) {
			first = v
		}
	}
	bestProc, bestDiff := 0, 1<<30
	for p := 0; p < n; p++ {
		diff := len(t.Neighbors(p)) - g.Degree(first)
		if diff < 0 {
			diff = -diff
		}
		if diff < bestDiff {
			bestProc, bestDiff = p, diff
		}
	}
	m[first] = bestProc
	procFree[bestProc] = false
	placedTasks := 1

	// Step 2: repeatedly place the unplaced task with the most
	// communication to placed tasks, on the free processor minimizing
	// cost + lookahead penalty.
	placedComm := make([]float64, n)
	adj, w := g.Neighbors(first)
	for i, u := range adj {
		placedComm[u] = w[i]
	}
	d := topology.NewDists(t)
	for placedTasks < n {
		tk := -1
		for v := 0; v < n; v++ {
			if m[v] >= 0 {
				continue
			}
			if tk < 0 || placedComm[v] > placedComm[tk] {
				tk = v
			}
		}
		adj, w := g.Neighbors(tk)
		unplacedW := 0.0
		for i, u := range adj {
			if m[u] < 0 {
				unplacedW += w[i]
			}
		}
		pk, bestCost := -1, 0.0
		for p := 0; p < n; p++ {
			if !procFree[p] {
				continue
			}
			cost := 0.0
			for i, u := range adj {
				if pu := m[u]; pu >= 0 {
					cost += w[i] * float64(d.Dist(p, pu))
				}
			}
			// Look-ahead: penalize processors with few free neighbors
			// relative to the communication still to be placed nearby.
			freeNbrs := 0
			for _, q := range t.Neighbors(p) {
				if procFree[q] {
					freeNbrs++
				}
			}
			cost += unplacedW * float64(g.Degree(tk)-min(freeNbrs, g.Degree(tk)))
			if pk < 0 || cost < bestCost {
				pk, bestCost = p, cost
			}
		}
		m[tk] = pk
		procFree[pk] = false
		placedTasks++
		for i, u := range adj {
			if m[u] < 0 {
				placedComm[u] += w[i]
			}
		}
	}
	passes := s.ImprovePasses
	if passes <= 0 {
		passes = 4
	}
	core.Refine(g, t, m, passes)
	return m, nil
}

// TauraChien is the 2000 linear-ordering heuristic (proposed for
// heterogeneous systems; here specialized to homogeneous processors):
// tasks are ordered along a line so heavily communicating tasks sit close
// — built greedily by repeatedly appending the unordered task with the
// strongest connection to the current tail segment — and processors are
// ordered by a locality-preserving linearization (snake order for grids,
// rank order otherwise). The i-th task goes to the i-th processor.
type TauraChien struct {
	// Window is the tail-segment length considered when appending; zero
	// means 8.
	Window int
}

// Name implements core.Strategy.
func (TauraChien) Name() string { return "TauraChien" }

// Map implements core.Strategy.
func (s TauraChien) Map(g *taskgraph.Graph, t topology.Topology) (core.Mapping, error) {
	if err := core.CheckSizes(g, t); err != nil {
		return nil, err
	}
	n := t.Nodes()
	window := s.Window
	if window <= 0 {
		window = 8
	}
	// Greedy linear ordering of tasks.
	order := make([]int, 0, n)
	placed := make([]bool, n)
	start := 0
	for v := 1; v < n; v++ {
		if g.WeightedDegree(v) > g.WeightedDegree(start) {
			start = v
		}
	}
	order = append(order, start)
	placed[start] = true
	// conn[v] = decayed connection of v to the tail of the ordering.
	conn := make([]float64, n)
	addTail := func(v int, weight float64) {
		adj, w := g.Neighbors(v)
		for i, u := range adj {
			if !placed[u] {
				conn[u] += w[i] * weight
			}
		}
	}
	addTail(start, 1)
	for len(order) < n {
		best := -1
		for v := 0; v < n; v++ {
			if placed[v] {
				continue
			}
			if best < 0 || conn[v] > conn[best] {
				best = v
			}
		}
		order = append(order, best)
		placed[best] = true
		conn[best] = 0
		// Recompute decayed tail connections over the last `window` tasks.
		for i := range conn {
			conn[i] = 0
		}
		lo := len(order) - window
		if lo < 0 {
			lo = 0
		}
		for i := lo; i < len(order); i++ {
			addTail(order[i], float64(i-lo+1)/float64(window))
		}
	}
	// Processor linearization.
	procs := processorOrder(t)
	m := make(core.Mapping, n)
	for i, task := range order {
		m[task] = procs[i]
	}
	return m, nil
}

// processorOrder linearizes processors locality-first: snake order for
// coordinated grids, BFS order from node 0 otherwise.
func processorOrder(t topology.Topology) []int {
	if co, ok := t.(topology.Coordinated); ok {
		return snakeOrder(co.Dims())
	}
	n := t.Nodes()
	order := make([]int, 0, n)
	seen := make([]bool, n)
	queue := []int{0}
	seen[0] = true
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		order = append(order, v)
		nbrs := append([]int(nil), t.Neighbors(v)...)
		sort.Ints(nbrs)
		for _, u := range nbrs {
			if !seen[u] {
				seen[u] = true
				queue = append(queue, u)
			}
		}
	}
	// Disconnected topologies: append leftovers in rank order.
	for v := 0; v < n; v++ {
		if !seen[v] {
			order = append(order, v)
		}
	}
	return order
}
