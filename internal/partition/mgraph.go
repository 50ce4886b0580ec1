package partition

import (
	"math/rand"

	"repro/internal/taskgraph"
)

// mgraph is the internal CSR graph the multilevel algorithm manipulates.
// Unlike taskgraph.Graph it is cheap to build level by level.
type mgraph struct {
	n      int
	xadj   []int32
	adjncy []int32
	adjwgt []float64
	vwgt   []float64
}

func fromTaskGraph(g *taskgraph.Graph) *mgraph {
	n := g.NumVertices()
	m := &mgraph{n: n, xadj: make([]int32, n+1), vwgt: make([]float64, n)}
	total := 0
	for v := 0; v < n; v++ {
		m.vwgt[v] = g.VertexWeight(v)
		total += g.Degree(v)
	}
	m.adjncy = make([]int32, 0, total)
	m.adjwgt = make([]float64, 0, total)
	for v := 0; v < n; v++ {
		adj, w := g.Neighbors(v)
		m.adjncy = append(m.adjncy, adj...)
		m.adjwgt = append(m.adjwgt, w...)
		m.xadj[v+1] = int32(len(m.adjncy))
	}
	return m
}

func (m *mgraph) neighbors(v int32) ([]int32, []float64) {
	lo, hi := m.xadj[v], m.xadj[v+1]
	return m.adjncy[lo:hi], m.adjwgt[lo:hi]
}

func (m *mgraph) totalVwgt() float64 {
	s := 0.0
	for _, w := range m.vwgt {
		s += w
	}
	return s
}

// coarsen matches vertices by heavy-edge matching and contracts matched
// pairs, returning the coarse graph and the fine→coarse vertex map.
// maxVwgt bounds the weight of a contracted vertex so one giant vertex
// cannot make balanced partitioning impossible. The match/contract kernel
// lives in hierarchy.go (shared with the mapping hierarchy); this wrapper
// keeps the partitioner's historical rng-permuted visit order and sorted
// coarse adjacency.
func (m *mgraph) coarsen(rng *rand.Rand, maxVwgt float64, sc *contractScratch) (*mgraph, []int32) {
	lvl := &CGraph{N: m.n, Xadj: m.xadj, Adjncy: m.adjncy, Adjwgt: m.adjwgt, Vwgt: m.vwgt}
	perm := rng.Perm(m.n)
	order := make([]int32, m.n)
	for i, v := range perm {
		order[i] = int32(v)
	}
	pref := make([]int32, m.n)
	match := make([]int32, m.n)
	cmap := make([]int32, m.n)
	coarseN := matchHeavyEdge(lvl, order, maxVwgt, 0, pref, match, cmap)
	coarse := contract(lvl, cmap, coarseN, true, sc)
	return &mgraph{n: coarse.N, xadj: coarse.Xadj, adjncy: coarse.Adjncy,
		adjwgt: coarse.Adjwgt, vwgt: coarse.Vwgt}, cmap
}

// extract builds the subgraph induced by the selected vertices (given as
// original indices); edges leaving the selection are dropped. Returns the
// subgraph; sub-vertex i corresponds to sel[i].
func (m *mgraph) extract(sel []int32) *mgraph {
	inv := make(map[int32]int32, len(sel))
	for i, v := range sel {
		inv[v] = int32(i)
	}
	sub := &mgraph{n: len(sel), xadj: make([]int32, len(sel)+1), vwgt: make([]float64, len(sel))}
	for i, v := range sel {
		sub.vwgt[i] = m.vwgt[v]
		adj, w := m.neighbors(v)
		for j, u := range adj {
			if su, ok := inv[u]; ok {
				sub.adjncy = append(sub.adjncy, su)
				sub.adjwgt = append(sub.adjwgt, w[j])
			}
		}
		sub.xadj[i+1] = int32(len(sub.adjncy))
	}
	return sub
}
