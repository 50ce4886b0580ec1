package partition

import (
	"math/rand"
	"sort"

	"repro/internal/taskgraph"
)

// Multilevel is a METIS-style multilevel k-way partitioner: the graph is
// coarsened by heavy-edge matching, the coarsest graph is partitioned by
// recursive bisection (greedy graph growing + Fiduccia–Mattheyses
// refinement), and the partition is projected back level by level with
// k-way boundary refinement at each step.
//
// The zero value uses sensible defaults; all fields are optional.
type Multilevel struct {
	// Epsilon is the allowed load imbalance (max part load may reach
	// (1+Epsilon)·average). Default 0.10.
	Epsilon float64
	// Seed drives all randomized choices; runs are deterministic per seed.
	Seed int64
	// CoarsenTo stops coarsening once the graph has at most this many
	// vertices. Default max(128, 4k).
	CoarsenTo int
	// BisectTries is the number of graph-growing seeds per bisection.
	// Default 4.
	BisectTries int
	// RefinePasses bounds k-way refinement passes per level. Default 4.
	RefinePasses int
}

// Name implements Partitioner.
func (Multilevel) Name() string { return "multilevel" }

// Partition implements Partitioner.
func (ml Multilevel) Partition(g *taskgraph.Graph, k int) (*Result, error) {
	if err := checkArgs(g, k); err != nil {
		return nil, err
	}
	n := g.NumVertices()
	if n == k {
		return identity(n), nil
	}
	if k == 1 {
		return &Result{Assign: make([]int, n), K: 1}, nil
	}
	eps := ml.Epsilon
	if eps <= 0 {
		eps = 0.10
	}
	tries := ml.BisectTries
	if tries <= 0 {
		tries = 4
	}
	passes := ml.RefinePasses
	if passes <= 0 {
		passes = 4
	}
	coarsenTo := ml.CoarsenTo
	if coarsenTo <= 0 {
		coarsenTo = 4 * k
		if coarsenTo < 128 {
			coarsenTo = 128
		}
	}
	rng := rand.New(rand.NewSource(ml.Seed))

	// Coarsening phase.
	m0 := FromTaskGraph(g)
	maxVwgt := 1.5 * m0.totalVwgt() / float64(k)
	levels := []*CGraph{m0}
	var cmaps [][]int32
	var scratch contractScratch
	for levels[len(levels)-1].N > coarsenTo {
		cur := levels[len(levels)-1]
		coarse, cmap := coarsen(cur, rng, maxVwgt, &scratch)
		if coarse.N >= cur.N || float64(coarse.N) > 0.95*float64(cur.N) {
			break // matching stagnated
		}
		levels = append(levels, coarse)
		cmaps = append(cmaps, cmap)
	}

	// Initial partition of the coarsest level by recursive bisection.
	coarsest := levels[len(levels)-1]
	assign := make([]int, coarsest.N)
	ids := make([]int32, coarsest.N)
	inv := make([]int32, coarsest.N) // extract's scratch: -1 between calls
	for i := range ids {
		ids[i] = int32(i)
		inv[i] = -1
	}
	recursiveBisect(coarsest, ids, k, 0, assign, rng, tries, inv)
	kwayRefine(coarsest, assign, k, eps, passes, rng)

	// Uncoarsening with refinement.
	for lvl := len(levels) - 2; lvl >= 0; lvl-- {
		fine := levels[lvl]
		cmap := cmaps[lvl]
		projected := make([]int, fine.N)
		for v := 0; v < fine.N; v++ {
			projected[v] = assign[cmap[v]]
		}
		assign = projected
		kwayRefine(fine, assign, k, eps, passes, rng)
	}
	r := &Result{Assign: assign, K: k}
	repairEmptyGroups(g, r)
	return r, nil
}

// coarsen matches vertices by heavy-edge matching and contracts matched
// pairs, returning the coarse graph and the fine→coarse vertex map.
// maxVwgt bounds the weight of a contracted vertex so one giant vertex
// cannot make balanced partitioning impossible. The match/contract kernel
// is the mapping hierarchy's (hierarchy.go); the partitioner keeps its
// rng-permuted visit order and sorted coarse adjacency.
func coarsen(lvl *CGraph, rng *rand.Rand, maxVwgt float64, sc *contractScratch) (*CGraph, []int32) {
	perm := rng.Perm(lvl.N)
	order := make([]int32, lvl.N)
	for i, v := range perm {
		order[i] = int32(v)
	}
	pref := make([]int32, lvl.N)
	match := make([]int32, lvl.N)
	cmap := make([]int32, lvl.N)
	coarseN := matchHeavyEdge(lvl, order, maxVwgt, 0, pref, match, cmap)
	return contract(lvl, cmap, coarseN, true, sc), cmap
}

// extract builds the subgraph of m induced by the selected vertices;
// edges leaving the selection are dropped and sub-vertex i corresponds to
// sel[i]. inv is scratch of at least m.N entries, all -1 on entry and on
// return.
func extract(m *CGraph, sel, inv []int32) *CGraph {
	for i, v := range sel {
		inv[v] = int32(i)
	}
	sub := &CGraph{N: len(sel), Xadj: make([]int32, len(sel)+1), Vwgt: make([]float64, len(sel))}
	for i, v := range sel {
		sub.Vwgt[i] = m.Vwgt[v]
		adj, w := m.neighbors(v)
		for j, u := range adj {
			if su := inv[u]; su >= 0 {
				sub.Adjncy = append(sub.Adjncy, su)
				sub.Adjwgt = append(sub.Adjwgt, w[j])
			}
		}
		sub.Xadj[i+1] = int32(len(sub.Adjncy))
	}
	for _, v := range sel {
		inv[v] = -1
	}
	return sub
}

// recursiveBisect assigns parts [offset, offset+k) to the vertices of sub
// (whose vertex i is original vertex ids[i] of the level graph), writing
// into assign indexed by original level-vertex id. inv is extract's
// scratch, sized for the level graph.
func recursiveBisect(m *CGraph, ids []int32, k, offset int, assign []int, rng *rand.Rand, tries int, inv []int32) {
	sub := m
	if len(ids) != m.N {
		panic("partition: ids/graph size mismatch")
	}
	if k == 1 {
		for _, v := range ids {
			assign[v] = offset
		}
		return
	}
	k1 := (k + 1) / 2
	k2 := k - k1
	side := bisect(sub, float64(k1)/float64(k), rng, tries)
	ensureSideCounts(sub, side, k1, k2)
	var sel0, sel1 []int32
	var ids0, ids1 []int32
	for i, s := range side {
		if s == 0 {
			sel0 = append(sel0, int32(i))
			ids0 = append(ids0, ids[i])
		} else {
			sel1 = append(sel1, int32(i))
			ids1 = append(ids1, ids[i])
		}
	}
	recursiveBisect(extract(sub, sel0, inv), ids0, k1, offset, assign, rng, tries, inv)
	recursiveBisect(extract(sub, sel1, inv), ids1, k2, offset+k1, assign, rng, tries, inv)
}

// ensureSideCounts guarantees side 0 has at least k1 vertices and side 1
// at least k2, moving the lightest vertices across as needed (bisect can
// produce lopsided counts when vertex weights vary wildly).
func ensureSideCounts(m *CGraph, side []int8, k1, k2 int) {
	count := [2]int{}
	for _, s := range side {
		count[s]++
	}
	need := func(short, long int8, deficit int) {
		type vw struct {
			v int32
			w float64
		}
		var cands []vw
		for v := int32(0); v < int32(m.N); v++ {
			if side[v] == long {
				cands = append(cands, vw{v, m.Vwgt[v]})
			}
		}
		sort.Slice(cands, func(i, j int) bool {
			if cands[i].w < cands[j].w {
				return true
			}
			if cands[j].w < cands[i].w {
				return false
			}
			return cands[i].v < cands[j].v
		})
		for i := 0; i < deficit && i < len(cands); i++ {
			side[cands[i].v] = short
		}
	}
	if count[0] < k1 {
		need(0, 1, k1-count[0])
	} else if count[1] < k2 {
		need(1, 0, k2-count[1])
	}
}

// repairEmptyGroups moves the lightest vertex of the most populous group
// into any empty group. Refinement never empties a group, but this keeps
// Partition's non-empty contract robust regardless of inputs.
func repairEmptyGroups(g *taskgraph.Graph, r *Result) {
	sizes := r.GroupSizes()
	for p := 0; p < r.K; p++ {
		for sizes[p] == 0 {
			donor, donorSize := -1, 1
			for q, s := range sizes {
				if s > donorSize {
					donor, donorSize = q, s
				}
			}
			if donor < 0 {
				return // cannot repair (n < k was rejected earlier)
			}
			lightest, lw := -1, 0.0
			for v, pv := range r.Assign {
				if pv == donor && (lightest < 0 || g.VertexWeight(v) < lw) {
					lightest, lw = v, g.VertexWeight(v)
				}
			}
			r.Assign[lightest] = p
			sizes[donor]--
			sizes[p]++
		}
	}
}
