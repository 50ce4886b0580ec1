package partition

import (
	"math/rand"
	"sync/atomic"

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

// balanceEpsilon is Multilevel's allowed load imbalance: a part's load
// may reach (1+balanceEpsilon)·average.
const balanceEpsilon = 0.10

// Name implements Partitioner.
func (Multilevel) Name() string { return "multilevel" }

// Partition implements Partitioner.
func (ml Multilevel) Partition(g *taskgraph.Graph, k int) (*Result, error) {
	return ml.partition(g, k, &arena{})
}

// partition is Partition on the caller's (zero) arena.
func (ml Multilevel) partition(g *taskgraph.Graph, k int, ar *arena) (*Result, error) {
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
	if m0.N > coarsenTo {
		ar.forCoarsening(m0.N)
	}
	for levels[len(levels)-1].N > coarsenTo {
		cur := levels[len(levels)-1]
		coarse, cmap := coarsen(cur, rng, maxVwgt, ar)
		if coarse.N >= cur.N || float64(coarse.N) > 0.95*float64(cur.N) {
			break // matching stagnated
		}
		levels = append(levels, coarse)
		cmaps = append(cmaps, cmap)
	}

	// The assignment ping-pongs between two buffers on the way back up,
	// even levels in one and odd levels in the other, so the finest level's
	// lands in one of exactly its size.
	var bufs [2][]int
	for i := range bufs {
		if i < len(levels) {
			bufs[i] = make([]int, levels[i].N)
		}
	}

	// Initial partition of the coarsest level by recursive bisection.
	lvl := len(levels) - 1
	coarsest := levels[lvl]
	ar.forBisection(coarsest.N, tries)
	assign := bufs[lvl%2][:coarsest.N]
	ids := make([]int32, coarsest.N)
	for i := range ids {
		ids[i] = int32(i)
	}
	recursiveBisect(coarsest, ids, k, 0, assign, rng, tries, ar)
	kwayRefine(coarsest, assign, k, balanceEpsilon, passes, rng)

	// Uncoarsening with refinement.
	for lvl--; lvl >= 0; lvl-- {
		fine := levels[lvl]
		cmap := cmaps[lvl]
		projected := bufs[lvl%2][:fine.N]
		for v := range projected {
			projected[v] = assign[cmap[v]]
		}
		assign = projected
		kwayRefine(fine, assign, k, balanceEpsilon, passes, rng)
	}
	r := &Result{Assign: assign, K: k}
	repairEmptyGroups(g, r)
	return r, nil
}

// arena is the scratch memory of one Partition call: what the phases
// would otherwise allocate per level, per bisection try and per FM pass.
// Partition owns it and sizes each group of buffers once, for the largest
// graph its phase sees (the finest level for coarsening, the coarsest for
// bisection); every user cuts them to its own graph. A buffer belongs to
// the innermost call that fills it and is dead when that call's caller
// has read it, with two exceptions that outlive their call: bisect's best
// and byWgt, which recursiveBisect reads until it recurses. Within the
// call, scratch is per worker, not per try: bisect's tries run on
// try0 alone or, when they fork, on one trial per worker, the others
// added at the first fork and kept for every later bisect. Nothing here
// is shared between calls.
type arena struct {
	// Coarsening: the rng-permuted visit order and matchHeavyEdge's work
	// arrays, and contract's.
	order, pref, match []int32
	contract           contractScratch
	// Bisection of the coarsest graph and its subgraphs.
	inv      []int32      // extract's inverse map: -1 between calls
	sel, ids []int32      // recursiveBisect's split of a graph and of its ids
	byWgt    []int32      // vertices in ascending (Vwgt, id) order, one sort a bisect
	seeds    []int32      // one growRegion seed a try
	nextTry  atomic.Int32 // the next try a bisect's workers take
	try0     trial
	workers  []*trial // try0, then one trial per further worker; nil until a bisect forks
	// Instrumentation, for tests: a function shown every
	// fmRefineBisection input, in try order.
	observeFM func(m *CGraph, side []int8, target, total float64)
}

// trial is one worker's scratch for bisect's tries: growRegion's
// candidate and connections, fmRefineBisection's buffers (see fm), the
// best side the worker's tries found with its cut, balance and try, and
// the tree nodes its FM passes touched. conn and gain share their memory:
// a try's connections are dead once its FM starts, and FM sets every
// gain before it reads one. byWgt is the arena's, shared and read-only
// while the tries run.
type trial struct {
	side, best         []int8
	conn, gain         []float64
	locked             []bool
	history            []fmMove
	byWgt              []int32
	leaf, leafAt, node []int32
	cut, bal           float64
	try                int
	fmNodes            int64
}

// newTrial returns a trial for graphs of up to n vertices, its four
// n-entry int32 buffers cut from buf.
func newTrial(n int, byWgt, buf []int32) trial {
	sides := make([]int8, 2*n)
	floats := make([]float64, n)
	return trial{
		side: sides[:n], best: sides[n:],
		conn: floats, gain: floats,
		locked:  make([]bool, n),
		history: make([]fmMove, 0, n),
		byWgt:   byWgt,
		leaf:    buf[:n], leafAt: buf[n : 2*n], node: buf[2*n : 4*n],
	}
}

// forCoarsening sizes the coarsening buffers for a finest level of n
// vertices.
func (ar *arena) forCoarsening(n int) {
	buf := make([]int32, 3*n)
	ar.order, ar.pref, ar.match = buf[:n], buf[n:2*n], buf[2*n:]
}

// forBisection sizes the bisection buffers, try0's included, for a
// coarsest level of n vertices and the given tries a bisect.
func (ar *arena) forBisection(n, tries int) {
	buf := make([]int32, 8*n+tries)
	ar.inv, ar.sel, ar.ids, ar.byWgt = buf[:n], buf[n:2*n], buf[2*n:3*n], buf[3*n:4*n]
	ar.seeds = buf[8*n:]
	for i := range ar.inv {
		ar.inv[i] = -1
	}
	ar.try0 = newTrial(n, ar.byWgt, buf[4*n:8*n])
}

// forWorkers returns the trials of w workers, try0 first, adding the
// missing ones at forBisection's size.
func (ar *arena) forWorkers(w int) []*trial {
	if ar.workers == nil {
		ar.workers = []*trial{&ar.try0}
	}
	for len(ar.workers) < w {
		n := len(ar.byWgt)
		tr := newTrial(n, ar.byWgt, make([]int32, 4*n))
		ar.workers = append(ar.workers, &tr)
	}
	return ar.workers[:w]
}

// coarsen matches vertices by heavy-edge matching and contracts matched
// pairs, returning the coarse graph and the fine→coarse vertex map.
// maxVwgt bounds the weight of a contracted vertex so one giant vertex
// cannot make balanced partitioning impossible. The match/contract kernel
// is the mapping hierarchy's (hierarchy.go); the partitioner keeps its
// rng-permuted visit order and sorted coarse adjacency.
func coarsen(lvl *CGraph, rng *rand.Rand, maxVwgt float64, ar *arena) (*CGraph, []int32) {
	// rng.Perm(lvl.N), drawn into the arena: the same draws, no []int.
	order := ar.order[:lvl.N]
	for i := range order {
		j := rng.Intn(i + 1)
		order[i] = order[j]
		order[j] = int32(i)
	}
	cmap := make([]int32, lvl.N)
	coarseN := matchHeavyEdge(lvl, order, maxVwgt, 0, ar.pref[:lvl.N], ar.match[:lvl.N], cmap)
	return contract(lvl, cmap, coarseN, true, &ar.contract), cmap
}

// extract builds the subgraph of m induced by the selected vertices;
// edges leaving the selection are dropped and sub-vertex i corresponds to
// sel[i]. inv is scratch of at least m.N entries, all -1 on entry and on
// return.
func extract(m *CGraph, sel, inv []int32) *CGraph {
	for i, v := range sel {
		inv[v] = int32(i)
	}
	edges := 0
	for _, v := range sel {
		adj, _ := m.neighbors(v)
		for _, u := range adj {
			if inv[u] >= 0 {
				edges++
			}
		}
	}
	sub := &CGraph{
		N:      len(sel),
		Xadj:   make([]int32, len(sel)+1),
		Adjncy: make([]int32, 0, edges),
		Adjwgt: make([]float64, 0, edges),
		Vwgt:   make([]float64, len(sel)),
	}
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

// recursiveBisect assigns parts [offset, offset+k) to the vertices of m
// (whose vertex i is original vertex ids[i] of the level graph), writing
// into assign indexed by original level-vertex id. It reorders ids. A
// single part needs no graph: m may be nil when k is 1.
func recursiveBisect(m *CGraph, ids []int32, k, offset int, assign []int, rng *rand.Rand, tries int, ar *arena) {
	if k == 1 {
		for _, v := range ids {
			assign[v] = offset
		}
		return
	}
	if len(ids) != m.N {
		panic("partition: ids/graph size mismatch")
	}
	k1 := (k + 1) / 2
	k2 := k - k1
	side := bisect(m, float64(k1)/float64(k), rng, tries, ar)
	ensureSideCounts(side, ar.byWgt[:m.N], k1, k2)
	// Side 0's vertices and ids move to the front, each side keeping its
	// order.
	n0 := 0
	for _, s := range side {
		if s == 0 {
			n0++
		}
	}
	sel, moved := ar.sel[:m.N], ar.ids[:m.N]
	at := [2]int{0, n0}
	for i, s := range side {
		sel[at[s]], moved[at[s]] = int32(i), ids[i]
		at[s]++
	}
	copy(ids, moved)
	// Both halves are cut out before either is bisected: the recursion
	// reuses sel.
	var sub [2]*CGraph
	if k1 > 1 {
		sub[0] = extract(m, sel[:n0], ar.inv)
	}
	if k2 > 1 {
		sub[1] = extract(m, sel[n0:], ar.inv)
	}
	recursiveBisect(sub[0], ids[:n0], k1, offset, assign, rng, tries, ar)
	recursiveBisect(sub[1], ids[n0:], k2, offset+k1, assign, rng, tries, ar)
}

// ensureSideCounts guarantees side 0 has at least k1 vertices and side 1
// at least k2, moving the lightest vertices (lowest id first among equals)
// across as needed (bisect can produce lopsided counts when vertex weights
// vary wildly). byWgt is bisect's weight order of the graph.
func ensureSideCounts(side []int8, byWgt []int32, k1, k2 int) {
	count := [2]int{}
	for _, s := range side {
		count[s]++
	}
	var short int8
	var deficit int
	switch {
	case count[0] < k1:
		short, deficit = 0, k1-count[0]
	case count[1] < k2:
		short, deficit = 1, k2-count[1]
	}
	for _, v := range byWgt {
		if deficit == 0 {
			break
		}
		if side[v] != short {
			side[v] = short
			deficit--
		}
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
