package core

import (
	"math/bits"

	"repro/internal/taskgraph"
	"repro/internal/topology"
)

// TopoCentLB is the simpler comparator strategy (§4.5): the first cycle
// places the most-communicating task on the most central free processor;
// each subsequent cycle extracts the task with the maximum total
// communication to already-placed tasks (a max-heap keyed by that value)
// and places it on the free processor where the first-order communication
// cost — hop-bytes to placed neighbors — is minimal. Equivalent to Baba et
// al.'s (P3,P4) heuristic; total running time O(p·|Et|).
type TopoCentLB struct{}

// Name implements Strategy.
func (TopoCentLB) Name() string { return "TopoCentLB" }

// taskHeap is a typed max-heap over key with index tracking so key updates
// can re-sift one entry in place (the old heap.Fix). Elements are task
// ids; no container/heap, so nothing is boxed through `any` on the
// per-placement update loop.
type taskHeap struct {
	key  []float64 // key per task id
	heap []int     // heap of task ids
	pos  []int     // pos[task] = index in heap, -1 once extracted
}

func (h *taskHeap) less(i, j int) bool {
	a, b := h.heap[i], h.heap[j]
	if h.key[a] > h.key[b] {
		return true
	}
	if h.key[b] > h.key[a] {
		return false
	}
	return a < b
}

func (h *taskHeap) swap(i, j int) {
	h.heap[i], h.heap[j] = h.heap[j], h.heap[i]
	h.pos[h.heap[i]] = i
	h.pos[h.heap[j]] = j
}

// init heapifies the backing slice in place.
func (h *taskHeap) init() {
	n := len(h.heap)
	for i := n/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
}

// pop removes and returns the max-key task.
func (h *taskHeap) pop() int {
	n := len(h.heap) - 1
	h.swap(0, n)
	v := h.heap[n]
	h.heap = h.heap[:n]
	h.pos[v] = -1
	if n > 0 {
		h.siftDown(0)
	}
	return v
}

// fix restores heap order after the key of the task at heap index i
// changed, like container/heap.Fix.
func (h *taskHeap) fix(i int) {
	if !h.siftDown(i) {
		h.siftUp(i)
	}
}

func (h *taskHeap) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			return
		}
		h.swap(i, parent)
		i = parent
	}
}

// siftDown reports whether the element at i moved, so fix can decide to
// try sifting up instead (container/heap's down/up protocol).
func (h *taskHeap) siftDown(i int) bool {
	n := len(h.heap)
	moved := false
	for {
		l := 2*i + 1
		if l >= n {
			return moved
		}
		m := l
		if r := l + 1; r < n && h.less(r, l) {
			m = r
		}
		if !h.less(m, i) {
			return moved
		}
		h.swap(i, m)
		i = m
		moved = true
	}
}

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
	h := &taskHeap{key: make([]float64, n), pos: make([]int, n)}
	for v := 0; v < n; v++ {
		if v != first {
			h.pos[v] = len(h.heap)
			h.heap = append(h.heap, v)
		} else {
			h.pos[v] = -1
		}
	}
	adj, w := g.Neighbors(first)
	for i, u := range adj {
		h.key[u] = w[i]
	}
	h.init()

	// The placed neighbours of the task being placed, in edge order: the
	// edge weights, and the neighbours' labels on a labelled machine, their
	// processors otherwise.
	l := d.Labels()
	var placedAt []int
	var placedL []uint64
	var placedW []float64
	for len(h.heap) > 0 {
		tk := h.pop()
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
			if h.pos[u] >= 0 {
				h.key[u] += w[i]
				h.fix(h.pos[u])
			}
		}
	}
	return m, nil
}
