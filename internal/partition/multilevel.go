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
	m0 := fromTaskGraph(g)
	maxVwgt := 1.5 * m0.totalVwgt() / float64(k)
	levels := []*mgraph{m0}
	var cmaps [][]int32
	var scratch contractScratch
	for levels[len(levels)-1].n > coarsenTo {
		cur := levels[len(levels)-1]
		coarse, cmap := cur.coarsen(rng, maxVwgt, &scratch)
		if coarse.n >= cur.n || float64(coarse.n) > 0.95*float64(cur.n) {
			break // matching stagnated
		}
		levels = append(levels, coarse)
		cmaps = append(cmaps, cmap)
	}

	// Initial partition of the coarsest level by recursive bisection.
	coarsest := levels[len(levels)-1]
	assign := make([]int, coarsest.n)
	ids := make([]int32, coarsest.n)
	for i := range ids {
		ids[i] = int32(i)
	}
	recursiveBisect(coarsest, ids, k, 0, assign, rng, tries)
	kwayRefine(coarsest, assign, k, eps, passes, rng)

	// Uncoarsening with refinement.
	for lvl := len(levels) - 2; lvl >= 0; lvl-- {
		fine := levels[lvl]
		cmap := cmaps[lvl]
		projected := make([]int, fine.n)
		for v := 0; v < fine.n; v++ {
			projected[v] = assign[cmap[v]]
		}
		assign = projected
		kwayRefine(fine, assign, k, eps, passes, rng)
	}
	r := &Result{Assign: assign, K: k}
	repairEmptyGroups(g, r)
	return r, nil
}

// recursiveBisect assigns parts [offset, offset+k) to the vertices of sub
// (whose vertex i is original vertex ids[i] of the level graph), writing
// into assign indexed by original level-vertex id.
func recursiveBisect(m *mgraph, ids []int32, k, offset int, assign []int, rng *rand.Rand, tries int) {
	sub := m
	if len(ids) != m.n {
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
	recursiveBisect(sub.extract(sel0), ids0, k1, offset, assign, rng, tries)
	recursiveBisect(sub.extract(sel1), ids1, k2, offset+k1, assign, rng, tries)
}

// ensureSideCounts guarantees side 0 has at least k1 vertices and side 1
// at least k2, moving the lightest vertices across as needed (bisect can
// produce lopsided counts when vertex weights vary wildly).
func ensureSideCounts(m *mgraph, side []int8, k1, k2 int) {
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
		for v := int32(0); v < int32(m.n); v++ {
			if side[v] == long {
				cands = append(cands, vw{v, m.vwgt[v]})
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
