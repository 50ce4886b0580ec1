package partition

import (
	"runtime"
	"sort"

	"repro/internal/parallel"
	"repro/internal/taskgraph"
)

// This file is the home of the heavy-edge matching kernel the k-way
// partitioner and the mapping hierarchy share: the same match/contract
// machinery, exposed as an explicit coarsening hierarchy (every level
// plus every fine→coarse map) so multilevel *mapping* can uncoarsen with
// local refinement. Levels carry merged vertex weights and merged
// finest-task counts; memory is O(n + |E|) summed over the whole hierarchy
// because level sizes decay geometrically.

// CGraph is one level of a coarsening hierarchy in CSR form. Adjacency
// blocks are deterministic but not sorted unless produced with sortAdj.
type CGraph struct {
	// N is the vertex count.
	N int
	// Xadj has len N+1; vertex v's edges are Adjncy[Xadj[v]:Xadj[v+1]].
	Xadj []int32
	// Adjncy holds neighbor vertex ids.
	Adjncy []int32
	// Adjwgt holds merged edge weights (bytes) parallel to Adjncy.
	Adjwgt []float64
	// Vwgt holds merged computation weights.
	Vwgt []float64
	// Tcount holds the number of finest-level tasks merged into each
	// vertex; nil means every vertex is a single task (a finest level).
	Tcount []int32
}

// TcountOf returns the finest-task count of vertex v (1 when Tcount is
// nil).
func (c *CGraph) TcountOf(v int32) int32 {
	if c.Tcount == nil {
		return 1
	}
	return c.Tcount[v]
}

func (c *CGraph) neighbors(v int32) ([]int32, []float64) {
	lo, hi := c.Xadj[v], c.Xadj[v+1]
	return c.Adjncy[lo:hi], c.Adjwgt[lo:hi]
}

func (c *CGraph) totalVwgt() float64 {
	s := 0.0
	for _, w := range c.Vwgt {
		s += w
	}
	return s
}

// Hierarchy is a sequence of increasingly coarse graphs produced by
// repeated heavy-edge matching. Levels[0] is the first contraction of the
// input; Levels[len-1] is the coarsest graph. Cmaps[i] maps the vertices
// of the previous level (the input graph for i == 0) onto Levels[i].
type Hierarchy struct {
	Levels []*CGraph
	Cmaps  [][]int32
}

// FromTaskGraph wraps g as a finest-level CGraph. The CSR slices alias
// g's storage and must not be modified.
func FromTaskGraph(g *taskgraph.Graph) *CGraph {
	xadj, adjncy, adjwgt := g.CSR()
	return &CGraph{
		N:      g.NumVertices(),
		Xadj:   xadj,
		Adjncy: adjncy,
		Adjwgt: adjwgt,
		Vwgt:   g.VertexWeights(),
	}
}

// maxHierarchyLevels bounds the hierarchy depth; levels shrink by at
// least 3 %, so only a pathological graph gets near it.
const maxHierarchyLevels = 64

// BuildHierarchy coarsens g by repeated heavy-edge matching until the
// coarsest level has at most coarsenTo (≥ 1) vertices or matching
// stagnates.
// No coarse vertex merges more than ceil(2·n / coarsenTo) finest tasks
// (at least 2), which keeps coarse vertices divisible into balanced slot
// blocks. The result is byte-deterministic at any GOMAXPROCS: the
// matching preference scan is a pure per-vertex function evaluated in
// parallel, and matches are committed serially in ascending vertex order
// with lowest-index tie-breaks.
func BuildHierarchy(g *taskgraph.Graph, coarsenTo int) *Hierarchy {
	n := g.NumVertices()
	maxTasks := max(2, int32((2*n+coarsenTo-1)/coarsenTo))
	h := &Hierarchy{}
	cur := FromTaskGraph(g)
	// Matching scratch is allocated once at the finest size and sliced per
	// level; only cmap, which the hierarchy keeps, is per level.
	pref := make([]int32, n)
	match := make([]int32, n)
	var scratch contractScratch
	for cur.N > coarsenTo && len(h.Levels) < maxHierarchyLevels {
		cmap := make([]int32, cur.N)
		coarseN := matchHeavyEdge(cur, nil, 0, maxTasks, pref[:cur.N], match[:cur.N], cmap)
		// Stagnation guard: a level that shrinks by less than 3% means the
		// task-count cap (or graph structure) blocks further contraction.
		if int(coarseN) >= cur.N || float64(coarseN) > 0.97*float64(cur.N) {
			break
		}
		coarse := contract(cur, cmap, coarseN, false, &scratch)
		h.Levels = append(h.Levels, coarse)
		h.Cmaps = append(h.Cmaps, cmap)
		cur = coarse
	}
	return h
}

// matchGrain is the fixed chunk size of the parallel preference scan;
// chunk boundaries never depend on the worker count.
const matchGrain = 512

// matchHeavyEdge computes a deterministic heavy-edge matching of lvl and
// assigns coarse vertex ids, returning the coarse vertex count.
//
// Phase one fills pref[v] with the heaviest neighbor of v admissible
// under the caps, ignoring matching state — a pure per-vertex function,
// evaluated in parallel. Ascending adjacency order with strict
// replacement makes the lowest-index neighbor win weight ties. Phase two
// commits serially, visiting vertices in order (nil = ascending index):
// an unmatched vertex takes its preference if still free, otherwise
// rescans for its heaviest still-unmatched admissible neighbor, otherwise
// stays a singleton. maxVwgt caps the merged vertex weight (0 = no cap);
// maxTasks caps the merged finest-task count (0 = no cap). match[v]
// receives v's partner (v itself for singletons) and cmap[v] the coarse
// id, numbered in commit order.
func matchHeavyEdge(lvl *CGraph, order []int32, maxVwgt float64, maxTasks int32, pref, match, cmap []int32) int32 {
	n := lvl.N
	admissible := func(v, u int32) bool {
		if maxVwgt > 0 && lvl.Vwgt[v]+lvl.Vwgt[u] > maxVwgt {
			return false
		}
		if maxTasks > 0 && lvl.TcountOf(v)+lvl.TcountOf(u) > maxTasks {
			return false
		}
		return true
	}
	parallel.For(n, matchGrain, func(lo, hi int) {
		for vi := lo; vi < hi; vi++ {
			v := int32(vi)
			best := int32(-1)
			bestW := -1.0
			for i := lvl.Xadj[v]; i < lvl.Xadj[v+1]; i++ {
				u := lvl.Adjncy[i]
				if w := lvl.Adjwgt[i]; w > bestW && admissible(v, u) {
					best, bestW = u, w
				}
			}
			pref[vi] = best
		}
	})
	for i := range match {
		match[i] = -1
	}
	coarseN := int32(0)
	commit := func(v int32) {
		if match[v] >= 0 {
			return
		}
		u := pref[v]
		if u < 0 || match[u] >= 0 {
			// The precomputed preference is taken; rescan among the still
			// unmatched (the exact serial heavy-edge matching semantics).
			u = -1
			bestW := -1.0
			for i := lvl.Xadj[v]; i < lvl.Xadj[v+1]; i++ {
				c := lvl.Adjncy[i]
				if match[c] < 0 && lvl.Adjwgt[i] > bestW && admissible(v, c) {
					u, bestW = c, lvl.Adjwgt[i]
				}
			}
		}
		if u >= 0 {
			match[v], match[u] = u, v
			cmap[v], cmap[u] = coarseN, coarseN
		} else {
			match[v] = v
			cmap[v] = coarseN
		}
		coarseN++
	}
	if order == nil {
		for v := int32(0); v < int32(n); v++ {
			commit(v)
		}
	} else {
		for _, v := range order {
			commit(v)
		}
	}
	return coarseN
}

// contractStripeRows is the fewest coarse rows a stripe of contract
// fills: a graph with fewer than twice as many is contracted on one core.
const contractStripeRows = 4096

// contractScratch holds contract's per-coarse-vertex work arrays. The
// zero value is ready; the first contraction of a coarsening run sizes
// it, and every later (smaller) level reuses the same memory.
type contractScratch struct {
	memA, memB []int32   // members of each coarse vertex, ascending
	marks      [][]int32 // one neighbour-dedup array per stripe
}

// sized returns the member arrays cut to coarseN entries and stripes
// dedup arrays, (re)allocating only when the scratch has never been this
// large or had this many stripes. A dedup array's stale contents need no
// clearing (see contract).
func (sc *contractScratch) sized(coarseN int32, stripes int) (memA, memB []int32, marks [][]int32) {
	if int32(cap(sc.memA)) < coarseN {
		sc.memA, sc.memB = make([]int32, coarseN), make([]int32, coarseN)
		sc.marks = sc.marks[:0]
	}
	for len(sc.marks) < stripes {
		sc.marks = append(sc.marks, make([]int32, cap(sc.memA)))
	}
	return sc.memA[:coarseN], sc.memB[:coarseN], sc.marks[:stripes]
}

// contract builds the coarse graph induced by cmap, allocating exactly the
// edges it keeps. A count pass sizes every coarse row, Adjncy and Adjwgt
// are allocated once at the counted total, and a fill pass writes the
// rows. Merged values accumulate in ascending fine-member order, so the
// result is independent of the commit visit order that numbered the
// coarse vertices. With sortAdj the per-vertex adjacency blocks are
// sorted by neighbor id (matching taskgraph's convention); otherwise
// blocks keep first-encounter order, which is already deterministic. No
// hash maps: dedup uses one int32 mark a coarse vertex, O(n + |E|) total.
//
// A coarse row depends on nothing but its members' rows, so both passes
// run in stripes of consecutive rows, one a worker, each through its own
// mark array: the count pass marks row c's distinct neighbours with the
// stamp -2-c, and the fill pass marks a neighbour with its position in
// the row, which is at least the row's start exactly when the neighbour
// is already there. Every neighbour of row c holds a stamp or a position
// of a row of c's own stripe, written in this call, so a mark array is
// never cleared; the output is the same bytes at any stripe count.
func contract(lvl *CGraph, cmap []int32, coarseN int32, sortAdj bool, sc *contractScratch) *CGraph {
	stripes := max(1, min(runtime.GOMAXPROCS(0), int(coarseN)/contractStripeRows))
	memA, memB, marks := sc.sized(coarseN, stripes)
	// Members of each coarse vertex in ascending fine order.
	for i := range memA {
		memA[i] = -1
		memB[i] = -1
	}
	for v := int32(0); v < int32(lvl.N); v++ {
		c := cmap[v]
		if memA[c] < 0 {
			memA[c] = v
		} else {
			memB[c] = v
		}
	}
	ct := contraction{lvl: lvl, cmap: cmap, memA: memA, memB: memB, marks: marks,
		stripe: (int(coarseN) + stripes - 1) / stripes, sortAdj: sortAdj}
	ct.xadj = make([]int32, coarseN+1)
	if stripes == 1 {
		ct.count(0, int(coarseN))
	} else {
		ct.fork((*contraction).count)
	}
	for c := int32(0); c < coarseN; c++ {
		ct.xadj[c+1] += ct.xadj[c]
	}
	ct.adj = make([]int32, ct.xadj[coarseN])
	ct.wgt = make([]float64, len(ct.adj))
	ct.vwgt = make([]float64, coarseN)
	ct.tcount = make([]int32, coarseN)
	if stripes == 1 {
		ct.fill(0, int(coarseN))
	} else {
		ct.fork((*contraction).fill)
	}
	return &CGraph{N: int(coarseN), Xadj: ct.xadj, Adjncy: ct.adj, Adjwgt: ct.wgt, Vwgt: ct.vwgt, Tcount: ct.tcount}
}

// contraction is one contract call's state: the fine level, its coarse
// map and members, the stripe length and mark arrays, and the coarse
// arrays the passes fill.
type contraction struct {
	lvl        *CGraph
	cmap       []int32
	memA, memB []int32
	marks      [][]int32
	stripe     int
	sortAdj    bool
	xadj, adj  []int32
	wgt, vwgt  []float64
	tcount     []int32
}

// fork runs pass over every stripe of coarse rows, one worker a stripe.
// Its receiver is a copy, so the serial path's contraction stays on the
// stack.
func (ct contraction) fork(pass func(ct *contraction, lo, hi int)) {
	parallel.For(len(ct.memA), ct.stripe, func(lo, hi int) { pass(&ct, lo, hi) })
}

// count writes the degree of every coarse row in [lo, hi) to xadj[c+1].
func (ct *contraction) count(lo, hi int) {
	lvl, cmap, mark := ct.lvl, ct.cmap, ct.marks[lo/ct.stripe]
	for c := int32(lo); c < int32(hi); c++ {
		stamp, deg := -2-c, int32(0)
		for _, m := range [2]int32{ct.memA[c], ct.memB[c]} {
			if m < 0 {
				break
			}
			for _, u := range lvl.Adjncy[lvl.Xadj[m]:lvl.Xadj[m+1]] {
				if cu := cmap[u]; cu != c && mark[cu] != stamp {
					mark[cu] = stamp
					deg++
				}
			}
		}
		ct.xadj[c+1] = deg
	}
}

// fill writes the coarse rows [lo, hi): merged vertex weight and task
// count, and every distinct coarse neighbour with its summed edge weight.
func (ct *contraction) fill(lo, hi int) {
	lvl, cmap, mark := ct.lvl, ct.cmap, ct.marks[lo/ct.stripe]
	adj, wgt := ct.adj, ct.wgt
	var sorter *adjSorter // sort.Sort's operand escapes: one per stripe, not per block
	for c := int32(lo); c < int32(hi); c++ {
		a, b := ct.memA[c], ct.memB[c]
		ct.vwgt[c] = lvl.Vwgt[a]
		ct.tcount[c] = lvl.TcountOf(a)
		if b >= 0 {
			ct.vwgt[c] += lvl.Vwgt[b]
			ct.tcount[c] += lvl.TcountOf(b)
		}
		start := ct.xadj[c]
		next := start
		for _, m := range [2]int32{a, b} {
			if m < 0 {
				break
			}
			flo, fhi := lvl.Xadj[m], lvl.Xadj[m+1]
			fw := lvl.Adjwgt[flo:fhi]
			for i, u := range lvl.Adjncy[flo:fhi] {
				cu := cmap[u]
				if cu == c {
					continue
				}
				if at := mark[cu]; at >= start {
					wgt[at] += fw[i]
				} else {
					mark[cu] = next
					adj[next], wgt[next] = cu, fw[i]
					next++
				}
			}
		}
		if ct.sortAdj {
			if sorter == nil {
				sorter = new(adjSorter)
			}
			sorter.adj, sorter.wgt = adj[start:next], wgt[start:next]
			sort.Sort(sorter)
		}
	}
}

// adjSorter sorts one adjacency block by neighbor id, keeping weights
// parallel.
type adjSorter struct {
	adj []int32
	wgt []float64
}

func (s *adjSorter) Len() int           { return len(s.adj) }
func (s *adjSorter) Less(i, j int) bool { return s.adj[i] < s.adj[j] }
func (s *adjSorter) Swap(i, j int) {
	s.adj[i], s.adj[j] = s.adj[j], s.adj[i]
	s.wgt[i], s.wgt[j] = s.wgt[j], s.wgt[i]
}
