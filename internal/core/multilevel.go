package core

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/parallel"
	"repro/internal/partition"
	"repro/internal/taskgraph"
	"repro/internal/topology"
)

// This file implements hierarchical (multilevel) mapping: coarsen the task
// graph by repeated heavy-edge matching, map the coarsest graph with an
// ordinary p==n strategy, then uncoarsen level by level with bounded local
// refinement. Every distance on this path — coarse map, projection,
// refinement deltas — comes from the machine's closed-form oracle, the
// refiner's topology.ClosedDists: its partial-cube labels on a mesh, even
// torus or hypercube, which SwapDelta reads directly, and Dist otherwise.
// No O(p²) DistanceMatrix is ever materialized, so million-task graphs
// map onto hundred-thousand-node machines in O(n + |E|) memory.
//
// Placement model. Tasks occupy a linear slot space [0, n). Processor
// q owns the contiguous slot block [⌈q·n/p⌉, ⌈(q+1)·n/p⌉), so every
// processor receives ⌊n/p⌋ or ⌈n/p⌉ tasks (a bijection when n == p), and
// slot→processor is the closed form s·p/n. Processors are laid along the
// slot axis in a locality order (recursive coordinate bisection for
// Coordinated topologies), so slot-adjacent blocks are topology-near.
// Every hierarchy vertex holds a contiguous slot run; refinement swaps
// equal-population runs between vertices.

// Placer is implemented by strategies that can place n >= p tasks
// directly onto p processors (a surjection, several tasks per processor)
// without a separate partitioning phase. MapTasks uses it to bypass the
// partition+map pipeline.
type Placer interface {
	Strategy
	// Place returns placement[task] = processor, with every processor
	// receiving at least one task.
	Place(g *taskgraph.Graph, t topology.Topology) ([]int, error)
}

// placeMap is Map for every Placer: on n == p, Place is a bijection.
func placeMap(s Placer, g *taskgraph.Graph, t topology.Topology) (Mapping, error) {
	if err := CheckSizes(g, t); err != nil {
		return nil, err
	}
	placement, err := s.Place(g, t)
	if err != nil {
		return nil, err
	}
	return Mapping(placement), nil
}

// MultilevelMap is the hierarchical coarsen→map→refine strategy. The zero
// value is ready to use.
type MultilevelMap struct{}

// mlRefinePasses bounds the refinement sweeps per uncoarsening level.
const mlRefinePasses = 2

var _ Placer = MultilevelMap{}

// Name implements Strategy.
func (s MultilevelMap) Name() string { return "Multilevel" }

// Map implements Strategy for the n == p case; the result is a bijection.
func (s MultilevelMap) Map(g *taskgraph.Graph, t topology.Topology) (Mapping, error) {
	return placeMap(s, g, t)
}

// Place implements Placer for any n >= p. The result is byte-identical at
// any GOMAXPROCS: every parallel phase is a pure per-index computation
// merged in index order, and every tie breaks toward the lowest index.
func (s MultilevelMap) Place(g *taskgraph.Graph, t topology.Topology) ([]int, error) {
	n, p := g.NumVertices(), t.Nodes()
	if n < p {
		return nil, fmt.Errorf("core: %d tasks cannot cover %d processors", n, p)
	}
	// Coarsen to min(2p, 1024) vertices — small enough that TopoLB's
	// superquadratic time on the coarsest graph stays in the tens of
	// milliseconds. Time, not memory, sets the cap: TopoLB holds only the
	// fest rows live at once, a frontier, not nc² cells. Moving the cap
	// would move placements. The coarsest graph may be smaller than p:
	// chunks are slot ranges, and slot→processor stays surjective
	// regardless of the chunk count, so the cap bounds that cost even on
	// hundred-thousand-node machines.
	target := min(2*p, 1024)

	procOrder := localityOrder(t)

	// Coarsen. levels[0] is the input graph; levels[i] contracts
	// levels[i-1] via h.Cmaps[i-1].
	h := partition.BuildHierarchy(g, target)
	levels := make([]*partition.CGraph, 1+len(h.Levels))
	levels[0] = partition.FromTaskGraph(g)
	copy(levels[1:], h.Levels)
	coarsest := levels[len(levels)-1]
	nc := coarsest.N

	// The refiner comes first: the coarse map and the projection measure
	// through its dist too, and its buffers, sized here for the finest
	// level, are reused down the V-cycle.
	r := newMLRefiner(t, procOrder, n, p)
	r.reserve(levels[0].N)

	// Map the coarsest graph with TopoLB, viewing the nc equal slot chunks
	// [i·n/nc, (i+1)·n/nc) through their center-slot representative
	// processors. The adapter is Ephemeral: nothing materializes a matrix.
	reps := make([]int32, nc)
	for i := range reps {
		center := int32((2*int64(i) + 1) * int64(n) / (2 * int64(nc)))
		reps[i] = procOrder[slotProc(center, n, p)]
	}
	chunks := &subsetTopology{d: r.d, reps: reps, name: fmt.Sprintf("mlrep(%s,nc=%d)", t.Name(), nc)}
	cm, err := TopoLB{}.Map(coarseTaskGraph(coarsest), chunks)
	if err != nil {
		return nil, fmt.Errorf("core: multilevel coarse mapping: %w", err)
	}

	// Re-pack: lay the coarse vertices along the slot axis in the order of
	// their assigned chunks, each occupying a run of Tcount slots.
	ord := make([]int32, nc)
	for v, c := range cm {
		ord[c] = int32(v)
	}
	start := make([]int32, nc)
	cursor := int32(0)
	for _, v := range ord {
		start[v] = cursor
		cursor += coarsest.TcountOf(v)
	}

	r.setLevel(coarsest, start)
	r.refine()
	for li := len(levels) - 2; li >= 0; li-- {
		start = r.projectLevel(levels[li], levels[li+1], h.Cmaps[li], start)
		r.setLevel(levels[li], start)
		r.refine()
	}
	r.labelCut()

	placement := make([]int, n)
	for v := range placement {
		placement[v] = int(procOrder[slotProc(start[v], n, p)])
	}
	return placement, nil
}

// slotProc returns the processor-order index owning slot s: s·p/n.
func slotProc(s int32, n, p int) int32 {
	return int32(int64(s) * int64(p) / int64(n))
}

// firstSlot returns the first slot owned by processor-order index q:
// ⌈q·n/p⌉. Non-empty for every q when n >= p.
func firstSlot(q int32, n, p int) int32 {
	return int32((int64(q)*int64(n) + int64(p) - 1) / int64(p))
}

// localityOrder returns a permutation of processor ranks such that ranks
// close in the order are close in the topology. Coordinated topologies
// (meshes, tori) get a recursive bisection along the longest dimension;
// everything else keeps rank order, which already clusters hypercube
// subcubes and fat-tree subtrees.
func localityOrder(t topology.Topology) []int32 {
	p := t.Nodes()
	order := make([]int32, 0, p)
	co, ok := t.(topology.Coordinated)
	if !ok {
		for q := 0; q < p; q++ {
			order = append(order, int32(q))
		}
		return order
	}
	// One box [lo, hi) is split in place: each half is recursed into with
	// its bound set, then the bound is restored.
	hi := co.Dims()
	lo := make([]int, len(hi))
	var rec func()
	rec = func() {
		// Split the longest dimension with extent > 1 (lowest index on
		// ties); a unit box emits its rank.
		d, ext := -1, 1
		for i := range lo {
			if e := hi[i] - lo[i]; e > ext {
				d, ext = i, e
			}
		}
		if d < 0 {
			order = append(order, int32(co.Rank(lo)))
			return
		}
		l, h := lo[d], hi[d]
		mid := l + ext/2
		hi[d] = mid
		rec()
		hi[d], lo[d] = h, mid
		rec()
		lo[d] = l
	}
	rec()
	return order
}

// coarseTaskGraph converts a hierarchy level to a taskgraph.Graph so the
// ordinary strategies can map it.
func coarseTaskGraph(c *partition.CGraph) *taskgraph.Graph {
	b := taskgraph.NewBuilder(c.N)
	for v := 0; v < c.N; v++ {
		b.SetVertexWeight(v, c.Vwgt[v])
		for i := c.Xadj[v]; i < c.Xadj[v+1]; i++ {
			if u := c.Adjncy[i]; int32(v) < u {
				b.AddEdge(v, int(u), c.Adjwgt[i])
			}
		}
	}
	return b.Build("multilevel-coarse")
}

// subsetTopology views the processors reps of a machine as a machine of
// their own, node i being reps[i], measured by the machine's oracle: a
// bijective kernel maps onto it without ever seeing the full machine. The
// multilevel mapper views its coarse slot chunks through their
// representative processors this way, and HierMap an underfull leaf
// through the head of its locality order. It is Ephemeral because its
// distances depend on reps, not just its name.
type subsetTopology struct {
	d    topology.Dists
	reps []int32
	name string
}

// EphemeralTopology marks the adapter as non-cacheable.
func (s *subsetTopology) EphemeralTopology() {}

var _ topology.Ephemeral = (*subsetTopology)(nil)

func (s *subsetTopology) Nodes() int   { return len(s.reps) }
func (s *subsetTopology) Name() string { return s.name }

func (s *subsetTopology) Distance(a, b int) int {
	return s.d.Dist(int(s.reps[a]), int(s.reps[b]))
}

// Neighbors returns nil: a subset's adjacency has no machine meaning, and
// the bijective kernels never consult it.
func (s *subsetTopology) Neighbors(a int) []int { return nil }

// projectLevel pushes a coarse slot layout down one level: each coarse
// vertex's slot run is split between its (at most two) children. The
// child order inside the run is chosen by comparing the approximate
// hop-bytes of both orders against the frozen parent-level layout; ties
// keep the lower-index child first. Pure per-coarse-vertex work, evaluated
// in parallel.
func (r *mlRefiner) projectLevel(fine, coarse *partition.CGraph, cmap []int32, cstart []int32) []int32 {
	procOrder, n, p := r.procOrder, r.n, r.p
	// Children of each coarse vertex in ascending fine order.
	childA := make([]int32, coarse.N)
	childB := make([]int32, coarse.N)
	for i := range childA {
		childA[i] = -1
		childB[i] = -1
	}
	for v := int32(0); v < int32(fine.N); v++ {
		c := cmap[v]
		if childA[c] < 0 {
			childA[c] = v
		} else {
			childB[c] = v
		}
	}
	// Frozen parent-level representative of a fine vertex's neighborhood:
	// the coarse level's repc, which its refine left equal to rep(c) over
	// cstart, so an edge costs no division.
	parentRep := func(u int32) int32 {
		return int32(r.repc[cmap[u]])
	}
	// Approximate cost of placing fine vertex v at rep processor pv,
	// against parent-level reps; the v–sib edge is order-invariant inside
	// the run and skipped.
	halfCost := func(v, sib, pv int32) float64 {
		cost := 0.0
		for i := fine.Xadj[v]; i < fine.Xadj[v+1]; i++ {
			u := fine.Adjncy[i]
			if u == sib {
				continue
			}
			cost += fine.Adjwgt[i] * float64(r.d.Dist(int(pv), int(parentRep(u))))
		}
		return cost
	}
	fstart := make([]int32, fine.N)
	parallel.For(coarse.N, 256, func(lo, hi int) {
		for c := lo; c < hi; c++ {
			a, b := childA[c], childB[c]
			s := cstart[c]
			if b < 0 {
				fstart[a] = s
				continue
			}
			ta, tb := fine.TcountOf(a), fine.TcountOf(b)
			rep := func(at, tc int32) int32 {
				return procOrder[slotProc(at+tc/2, n, p)]
			}
			costAB := halfCost(a, b, rep(s, ta)) + halfCost(b, a, rep(s+ta, tb))
			costBA := halfCost(a, b, rep(s+tb, ta)) + halfCost(b, a, rep(s, tb))
			if costBA < costAB {
				fstart[a], fstart[b] = s+tb, s
			} else {
				fstart[a], fstart[b] = s, s+ta
			}
		}
	})
	return fstart
}

// swapEps is the minimum hop-bytes improvement a refinement swap must
// deliver; it absorbs float accumulation noise so passes terminate.
const swapEps = 1e-12

// proposeGrain is the fixed chunk size of the parallel proposal sweep.
const proposeGrain = 64

// mlRefiner runs bounded local refinement on one hierarchy level: each
// pass proposes equal-population slot-run swaps in parallel against the
// frozen layout, then commits them serially in ascending vertex order,
// revalidating each delta against the live layout so the level's
// surrogate hop-bytes strictly decreases. At the finest level the
// surrogate (center-slot representative distance) is the exact hop-bytes.
type mlRefiner struct {
	t         topology.Topology
	d         topology.Dists // ClosedDists(t), chosen once per Place call
	procOrder []int32
	procIndex []int32 // the inverse of procOrder: rank → order index
	n, p      int
	lvl       *partition.CGraph
	start     []int32
	slotOwner []int32 // slot → owning vertex, len n
	proposals []int32 // per-vertex swap partner, -1 = none
	// repc[v] is vertex v's representative processor: the level's layout
	// as a Mapping, so SwapDelta scores a swap straight off the CSR rows.
	repc    Mapping
	dirty   []bool // vertices whose neighborhood changed last commit
	scanAll bool   // a level's first pass, and labelCut's first sweep, scan every vertex
}

func newMLRefiner(t topology.Topology, procOrder []int32, n, p int) *mlRefiner {
	procIndex := make([]int32, p)
	for i, q := range procOrder {
		procIndex[q] = int32(i)
	}
	return &mlRefiner{t: t, d: topology.ClosedDists(t), procOrder: procOrder, procIndex: procIndex,
		n: n, p: p, slotOwner: make([]int32, n)}
}

// reserve makes the per-vertex buffers hold at least nv vertices. Place
// calls it once with the finest level's size, so no level of the V-cycle
// allocates its own.
func (r *mlRefiner) reserve(nv int) {
	if cap(r.proposals) < nv {
		r.proposals = make([]int32, nv)
		r.repc = make(Mapping, nv)
		r.dirty = make([]bool, nv)
	}
}

// setLevel points the refiner at a level and its slot layout. The start
// slice is retained and mutated by refine.
func (r *mlRefiner) setLevel(lvl *partition.CGraph, start []int32) {
	r.lvl = lvl
	r.start = start
	r.reserve(lvl.N)
	r.proposals = r.proposals[:lvl.N]
	r.repc = r.repc[:lvl.N]
	r.dirty = r.dirty[:lvl.N]
	for v := int32(0); v < int32(lvl.N); v++ {
		tc := lvl.TcountOf(v)
		for s := start[v]; s < start[v]+tc; s++ {
			r.slotOwner[s] = v
		}
		r.repc[v] = int(r.rep(v))
	}
}

// refine runs up to mlRefinePasses propose/commit sweeps, stopping early
// once a sweep commits no move. The first sweep scans every vertex; later
// sweeps rescan only vertices whose neighborhood a commit changed.
func (r *mlRefiner) refine() {
	for pass := 0; pass < mlRefinePasses; pass++ {
		r.scanAll = pass == 0
		r.propose()
		if r.commit() == 0 {
			break
		}
	}
}

// procNeighbors returns the machine neighbors of processor q.
func (r *mlRefiner) procNeighbors(q int) []int {
	//lint:ignore hotalloc Topology.Neighbors returns a precomputed adjacency slice on every machine topology; zero allocations, pinned by TestMultilevelProposeZeroAlloc
	return r.t.Neighbors(q)
}

// owner returns the vertex holding processor rank q's first slot. Slots
// are laid out in procOrder, so the rank goes through procIndex first.
func (r *mlRefiner) owner(q int) int32 {
	return r.slotOwner[firstSlot(r.procIndex[q], r.n, r.p)]
}

// rep returns the center-slot representative processor of vertex v.
func (r *mlRefiner) rep(v int32) int32 {
	return r.procOrder[slotProc(r.start[v]+r.lvl.TcountOf(v)/2, r.n, r.p)]
}

// propose fills proposals[v] with the best equal-population swap partner
// for every vertex against the frozen layout (-1 when no swap improves).
// The scan is a pure per-vertex function; the first candidate achieving
// the best delta wins, in a fixed candidate order, so the result is
// identical at any GOMAXPROCS.
//
//lint:hotpath uncoarsen refinement inner loop: the per-vertex proposal scan runs at every hierarchy level over every vertex and must stay allocation-free, with distances from the closed-form oracle only
func (r *mlRefiner) propose() {
	//lint:ignore hotalloc one capturing closure per sweep; the per-vertex body is allocation-free
	parallel.For(r.lvl.N, proposeGrain, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			r.proposals[v] = r.proposeOne(int32(v))
		}
	})
}

// proposeOne scans v's candidate partners and returns the one giving the
// most negative hop-bytes delta (-1 if none clears swapEps). Candidates:
// owners of machine-neighbor processors of v's representative, owners of
// the slot runs flanking v's, and v's communication partners.
func (r *mlRefiner) proposeOne(v int32) int32 {
	if !r.scanAll && !r.dirty[v] {
		return -1
	}
	lvl := r.lvl
	pv := r.repc[v]
	// Gain filter: a vertex whose every edge already spans <= 1 hop cannot
	// reduce its own terms; skip it (partners still scan from their side).
	far := false
	for _, u := range lvl.Adjncy[lvl.Xadj[v]:lvl.Xadj[v+1]] {
		if r.d.Dist(pv, r.repc[u]) > 1 {
			far = true
			break
		}
	}
	if !far {
		return -1
	}
	tc := lvl.TcountOf(v)
	best := int32(-1)
	bestDelta := -swapEps
	for _, q := range r.procNeighbors(pv) {
		best, bestDelta = r.consider(v, r.owner(q), tc, pv, best, bestDelta)
	}
	if s := r.start[v] - 1; s >= 0 {
		best, bestDelta = r.consider(v, r.slotOwner[s], tc, pv, best, bestDelta)
	}
	if s := r.start[v] + tc; s < int32(r.n) {
		best, bestDelta = r.consider(v, r.slotOwner[s], tc, pv, best, bestDelta)
	}
	for i := lvl.Xadj[v]; i < lvl.Xadj[v+1]; i++ {
		best, bestDelta = r.consider(v, lvl.Adjncy[i], tc, pv, best, bestDelta)
	}
	return best
}

// consider evaluates candidate partner c for vertex v and returns the
// updated best partner and delta. Strictly better deltas replace, so the
// first candidate reaching the best value wins (fixed candidate order).
func (r *mlRefiner) consider(v, c, tc int32, pv int, best int32, bestDelta float64) (int32, float64) {
	if c == v || r.lvl.TcountOf(c) != tc {
		return best, bestDelta
	}
	pc := r.repc[c]
	if pc == pv {
		return best, bestDelta
	}
	if d := r.swapDelta(v, c, pv, pc); d < bestDelta {
		return c, d
	}
	return best, bestDelta
}

// swapDelta returns the change in the level's surrogate hop-bytes if v
// (rep pv) and c (rep pc) exchange slot runs: SwapDelta over the two CSR
// rows, with repc as the mapping.
func (r *mlRefiner) swapDelta(v, c int32, pv, pc int) float64 {
	x := r.lvl.Xadj
	adj, w := r.lvl.Adjncy, r.lvl.Adjwgt
	return SwapDelta(&r.d, r.repc, pv, pc, int(v), adj[x[v]:x[v+1]], w[x[v]:x[v+1]], int(c), adj[x[c]:x[c+1]], w[x[c]:x[c+1]])
}

// commit applies proposals serially in ascending vertex order, recomputing
// each delta against the live layout (earlier commits may have changed
// it), and returns the number of swaps applied. Swapped vertices and
// their communication partners are marked dirty for the next pass.
func (r *mlRefiner) commit() int {
	for i := range r.dirty {
		r.dirty[i] = false
	}
	moves := 0
	for v := int32(0); v < int32(r.lvl.N); v++ {
		c := r.proposals[v]
		if c < 0 {
			continue
		}
		pv, pc := r.repc[v], r.repc[c]
		if pv == pc {
			continue
		}
		if r.swapDelta(v, c, pv, pc) >= -swapEps {
			continue
		}
		r.exchange(v, c, pv, pc)
		r.moved(v)
		r.moved(c)
		moves++
	}
	return moves
}

// exchange swaps the slot runs of v (rep pv) and c (rep pc), which hold
// equally many tasks.
func (r *mlRefiner) exchange(v, c int32, pv, pc int) {
	tc := r.lvl.TcountOf(v)
	r.start[v], r.start[c] = r.start[c], r.start[v]
	for s := r.start[v]; s < r.start[v]+tc; s++ {
		r.slotOwner[s] = v
	}
	for s := r.start[c]; s < r.start[c]+tc; s++ {
		r.slotOwner[s] = c
	}
	r.repc[v], r.repc[c] = pc, pv
}

// moved records that v's representative changed: v and its communication
// partners are marked for the next pass.
func (r *mlRefiner) moved(v int32) {
	r.dirty[v] = true
	for _, u := range r.lvl.Adjncy[r.lvl.Xadj[v]:r.lvl.Xadj[v+1]] {
		r.dirty[u] = true
	}
}

// cutOrders is how many digit orders the label-cut pass sweeps: the
// labels' digits ascending, then descending.
const cutOrders = 2

// labelCut is the finest level's last pass on a machine with partial-cube
// labels, the local search of TiMEr (Glantz, Predari and Meyerhenke,
// Topology-induced Enhancement of Mappings). Hop-bytes is the sum over
// edges of w·popcount(l[a]^l[b]), so it is also the sum over the label's
// digits of the weight each digit cuts. Each order starts with one sweep
// over the edges that lists every digit's candidates: the tasks whose
// weight across the digit is more than half their weighted degree (the
// second order's sweep revisits only the tasks the first order's swaps
// made dirty). Then, digit by digit, each candidate seeks a partner among
// the same digit's candidates in its sibling block: across the digit,
// sharing every earlier digit of the order (cutPartner says on which
// processors). Proposals are made in parallel against the frozen layout
// and committed serially in ascending task order, each rescored by
// SwapDelta against the live layout and kept only if it lowers hop-bytes
// by more than swapEps. A swap exchanges two slots, so every processor
// keeps its task count. It returns the number of swaps; without labels it
// does nothing.
func (r *mlRefiner) labelCut() int {
	l := r.d.Labels()
	if l == nil {
		return 0
	}
	var used uint64
	for _, x := range l {
		used |= x
	}
	want := make([]uint64, r.lvl.N)
	var at [65]int32
	var cand []int32
	swaps := 0
	r.scanAll = true
	for o := 0; o < cutOrders; o++ {
		cand = r.cutCandidates(l, want, &at, cand)
		r.scanAll = false
		clear(r.dirty)
		var prefix uint64
		for rem := used; rem != 0; {
			d := bits.TrailingZeros64(rem)
			if o == 1 {
				d = 63 - bits.LeadingZeros64(rem)
			}
			bit := uint64(1) << d
			rem &^= bit
			if list := cand[at[d]:at[d+1]]; len(list) > 0 {
				r.proposeCut(l, want, list, prefix|bit, bit)
				swaps += r.commitCut(l, list, prefix|bit, bit)
			}
			prefix |= bit
		}
	}
	return swaps
}

// cutCandidates sets want[v] to the digits whose cut carries more than
// half of v's weighted degree, in one sweep over the edges (of every task
// on scanAll, else of the tasks a swap made dirty), and returns every
// digit's candidates in one list: digit d's are cand[at[d]:at[d+1]], in
// ascending task order. cand's storage is reused.
func (r *mlRefiner) cutCandidates(l, want []uint64, at *[65]int32, cand []int32) []int32 {
	r.markCandidates(l, want)
	*at = [65]int32{}
	for _, m := range want {
		for ; m != 0; m &= m - 1 {
			at[bits.TrailingZeros64(m)+1]++
		}
	}
	for d := range 64 {
		at[d+1] += at[d]
	}
	cand = slices.Grow(cand[:0], int(at[64]))[:at[64]]
	next := *at
	for v, m := range want {
		for ; m != 0; m &= m - 1 {
			d := bits.TrailingZeros64(m)
			cand[next[d]] = int32(v)
			next[d]++
		}
	}
	return cand
}

// markCandidates fills want, one pure per-task computation. A task
// whose processor and partners' processors have not moved since the last
// sweep keeps its digits.
//
//lint:hotpath label-cut candidate sweep: one pass over every task's edges at the finest level, allocation-free per task
func (r *mlRefiner) markCandidates(l, want []uint64) {
	//lint:ignore hotalloc one capturing closure per sweep; the per-task body is allocation-free
	parallel.For(len(want), proposeGrain, func(lo, hi int) {
		// cross[d] is the task's weight across digit d; the digits set
		// in seen are reset after each task.
		var cross [64]float64
		x, adj, w := r.lvl.Xadj, r.lvl.Adjncy, r.lvl.Adjwgt
		for v := lo; v < hi; v++ {
			if !r.scanAll && !r.dirty[v] {
				continue
			}
			lv := l[r.repc[v]]
			deg := 0.0
			var seen uint64
			for i := x[v]; i < x[v+1]; i++ {
				deg += w[i]
				diff := lv ^ l[r.repc[adj[i]]]
				seen |= diff
				for ; diff != 0; diff &= diff - 1 {
					cross[bits.TrailingZeros64(diff)] += w[i]
				}
			}
			var m uint64
			for ; seen != 0; seen &= seen - 1 {
				d := bits.TrailingZeros64(seen)
				if 2*cross[d] > deg {
					m |= 1 << d
				}
				cross[d] = 0
			}
			want[v] = m
		}
	})
}

// proposeCut fills proposals[i] with the best partner of candidate
// list[i] across digit bit (-1 when no swap improves), against the frozen
// layout. keep is the digits the two processors must differ in exactly
// bit: the order's earlier digits and bit itself.
//
//lint:hotpath label-cut proposal sweep: one partner search per candidate of a digit at the finest level, allocation-free per task
func (r *mlRefiner) proposeCut(l, want []uint64, list []int32, keep, bit uint64) {
	//lint:ignore hotalloc one capturing closure per digit; the per-candidate body is allocation-free
	parallel.For(len(list), proposeGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			r.proposals[i] = r.cutPartner(l, want, list[i], keep, bit)
		}
	})
}

// cutPartner returns the partner whose swap with candidate v gives the
// most negative hop-bytes delta (-1 if none clears swapEps). It scans the
// same digit's candidates on v's machine neighbour across bit, then on
// every processor in v's sibling block that holds one of v's
// communication partners, and scores at most cutMaxScores of them. The
// first candidate reaching the best delta wins.
func (r *mlRefiner) cutPartner(l, want []uint64, v int32, keep, bit uint64) int32 {
	lvl := r.lvl
	pv := r.repc[v]
	lv := l[pv]
	best := int32(-1)
	bestDelta := -swapEps
	budget := cutMaxScores
	mirror := -1
	for _, q := range r.procNeighbors(pv) {
		if l[q]^lv == bit {
			mirror = q
			best, bestDelta, budget = r.cutScan(want, v, pv, q, bit, best, bestDelta, budget)
		}
	}
	last := -1
	for _, u := range lvl.Adjncy[lvl.Xadj[v]:lvl.Xadj[v+1]] {
		if budget <= 0 {
			break
		}
		q := r.repc[u]
		if q == last || q == mirror || (l[q]^lv)&keep != bit {
			continue
		}
		last = q
		best, bestDelta, budget = r.cutScan(want, v, pv, q, bit, best, bestDelta, budget)
	}
	return best
}

// cutMaxScores bounds the swaps one candidate scores per digit. On
// geometric graphs a candidate rarely meets more; on expanders, where
// most tasks are candidates of most digits, it keeps a digit's sweep
// linear in its candidates.
const cutMaxScores = 16

// cutScan scores v against the candidates of digit bit on processor q, in
// slot order, while budget lasts, and returns the updated best partner,
// its delta and the budget left.
func (r *mlRefiner) cutScan(want []uint64, v int32, pv, q int, bit uint64, best int32, bestDelta float64, budget int) (int32, float64, int) {
	qi := r.procIndex[q]
	for s, e := firstSlot(qi, r.n, r.p), firstSlot(qi+1, r.n, r.p); s < e && budget > 0; s++ {
		c := r.slotOwner[s]
		if want[c]&bit == 0 {
			continue
		}
		budget--
		if d := r.swapDelta(v, c, pv, q); d < bestDelta {
			best, bestDelta = c, d
		}
	}
	return best, bestDelta, budget
}

// commitCut applies the proposals for list serially in ascending order,
// each only while its two processors still sit across bit in one sibling
// block and its delta, rescored against the live layout, still clears
// swapEps. It returns the number of swaps applied.
func (r *mlRefiner) commitCut(l []uint64, list []int32, keep, bit uint64) int {
	swaps := 0
	for i, v := range list {
		c := r.proposals[i]
		if c < 0 {
			continue
		}
		pv, pc := r.repc[v], r.repc[c]
		if (l[pv]^l[pc])&keep != bit || r.swapDelta(v, c, pv, pc) >= -swapEps {
			continue
		}
		r.exchange(v, c, pv, pc)
		r.moved(v)
		r.moved(c)
		swaps++
	}
	return swaps
}
