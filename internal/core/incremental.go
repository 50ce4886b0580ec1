package core

import (
	"fmt"
	"sort"
	"sync/atomic"

	"repro/internal/taskgraph"
	"repro/internal/topology"
)

// IncrementalState is the core of the online remapping engine: a placement
// of tasks onto processors together with the cached structures needed to
// keep the hop-bytes metric current under a stream of load, communication,
// and placement changes — without the O(|E|·d) full recompute that a
// one-shot HopBytes call performs.
//
// Unlike the one-shot strategies, the state uses the measurement-based
// load-balancing model of the paper's §5.1: tasks (chares) may outnumber
// processors, several tasks may share a processor, and the task population
// itself drifts (chare creation and deletion). The placement is therefore
// a general task → processor assignment, not a bijection.
//
// # Hop-bytes maintenance
//
// Every undirected communication edge contributes w·d(P(a), P(b)) to
// hop-bytes. The state stores one such contribution per edge as a leaf of
// a fixed-shape binary summation tree (sumTree); the root is the total.
// Applying a mutation touches only the O(deg(task)) incident leaves plus
// their root paths, so a delta costs O(deg·log |E|) while reading the
// total is O(1).
//
// # Exactness
//
// The summation tree's shape is a function of the leaf count alone, so
// two states holding identical per-edge contributions in identical leaf
// order produce bit-identical totals — no drift accumulates, ever, no
// matter how many deltas have been applied. When edge weights are values
// whose products and partial sums are exactly representable in float64 —
// integer byte counts below 2^53, the lbdb setting — the total is
// moreover bit-identical to a full HopBytes recompute of the materialized
// graph, because every summation order of exactly-representable partial
// sums yields the same value. Both properties are pinned by property
// tests (see incremental_test.go and lbdb's delta-stream test).
//
// # Clean bits
//
// RefineIncremental memoizes its own negative results: clean[v] records
// that, at the current state, no refinement candidate of task v (a move to
// a partner's processor, a move to a processor adjacent to its own, a swap
// with a partner) has hop-bytes delta + cleanCost × migration delta below
// −1e-12 — judged before the load and budget gates, which read
// per-processor loads and the migration count and so change far too often
// to memoize. A candidate's delta reads the placement of v, N(v) and
// N(N(v)), the adjacency and weights of v and N(v), and (when cleanCost is
// non-zero) their anchors; every mutation clears the bits of exactly the
// tasks whose inputs it changed (see markMoved, markComm), so a refinement
// call after a small delta batch re-scores only that neighbourhood.
//
// IncrementalState is not safe for concurrent mutation; callers (the
// topomapd session layer) serialize access per state.
type IncrementalState struct {
	topo  topology.Topology
	d     topology.Dists
	procs int

	// Per-task state, indexed by stable task id. Removed tasks leave dead
	// slots (alive[i] == false) so ids in a delta stream never shift; a
	// dead slot keeps its last processor so materialized mappings stay
	// indexable, but carries no load and no edges.
	alive  []bool
	load   []float64
	proc   []int
	anchor []int // reference placement for migration accounting

	// clean[v]: no candidate of v improves under cleanCost (see "Clean
	// bits"). Dead slots are never consulted.
	clean     []bool
	cleanCost float64 // the MigrationCost the set bits were computed under

	// adj[v] lists v's communication partners in ascending id order, each
	// with the id of the shared edge record. adjBuf is the single backing
	// array CloneInto lays a clone's adjacency into, kept for reuse.
	adj    []incAdj
	adjBuf []int32

	// Edge records, indexed by edge id. Dead records (freed by edge
	// removal) have weight 0, a zeroed leaf, and sit on the free list.
	edgeA, edgeB []int32
	edgeW        []float64
	freeEdges    []int32

	tree      sumTree
	liveTasks int
	liveEdges int
}

// incAdj is one task's adjacency: partner ids (sorted ascending) and the
// parallel edge-record ids.
type incAdj struct {
	nbr []int32
	eid []int32
}

// incCounters are the process-wide incremental-engine counters surfaced
// through internal/metrics.
var incCounters struct {
	states      atomic.Int64
	mutations   atomic.Int64
	edgeUpdates atomic.Int64
	refineCalls atomic.Int64
	refineSwaps atomic.Int64
	refineMoves atomic.Int64
	refineEval  atomic.Int64
	refineSkip  atomic.Int64
}

// IncCounters is a snapshot of the process-wide incremental-engine
// counters: states built, mutations (deltas) applied, summation-tree leaf
// updates, and refinement activity — calls, accepted steps, and task
// visits that scored candidates (RefineEvaluated) or returned at once on
// the task's clean bit (RefineSkipped).
type IncCounters struct {
	States      int64 `json:"states"`
	Mutations   int64 `json:"mutations"`
	EdgeUpdates int64 `json:"edge_updates"`
	RefineCalls int64 `json:"refine_calls"`
	RefineSwaps int64 `json:"refine_swaps"`
	RefineMoves int64 `json:"refine_moves"`

	RefineEvaluated int64 `json:"refine_evaluated"`
	RefineSkipped   int64 `json:"refine_skipped"`
}

// IncrementalCounters snapshots the process-wide incremental-engine
// counters.
func IncrementalCounters() IncCounters {
	return IncCounters{
		States:      incCounters.states.Load(),
		Mutations:   incCounters.mutations.Load(),
		EdgeUpdates: incCounters.edgeUpdates.Load(),
		RefineCalls: incCounters.refineCalls.Load(),
		RefineSwaps: incCounters.refineSwaps.Load(),
		RefineMoves: incCounters.refineMoves.Load(),

		RefineEvaluated: incCounters.refineEval.Load(),
		RefineSkipped:   incCounters.refineSkip.Load(),
	}
}

// NewIncrementalState builds the state for graph g placed on t by m.
// m[v] is task v's processor; tasks may share processors (len(m) may
// exceed t.Nodes()). The initial placement also becomes the migration
// anchor. Edge leaves are assigned in CSR order (ascending (v, u) with
// v < u), which is the canonical order a from-scratch rebuild reproduces.
func NewIncrementalState(g *taskgraph.Graph, t topology.Topology, m Mapping) (*IncrementalState, error) {
	n := g.NumVertices()
	if len(m) != n {
		return nil, fmt.Errorf("core: incremental: mapping has %d entries for %d tasks", len(m), n)
	}
	for v, p := range m {
		if p < 0 || p >= t.Nodes() {
			return nil, fmt.Errorf("core: incremental: task %d on processor %d, out of [0,%d)", v, p, t.Nodes())
		}
	}
	s := &IncrementalState{
		topo:   t,
		d:      topology.NewDists(t),
		procs:  t.Nodes(),
		alive:  make([]bool, n),
		load:   make([]float64, n),
		proc:   make([]int, n),
		anchor: make([]int, n),
		clean:  make([]bool, n),
		adj:    make([]incAdj, n),
	}
	copy(s.proc, m)
	copy(s.anchor, m)
	for v := 0; v < n; v++ {
		s.alive[v] = true
		s.load[v] = g.VertexWeight(v)
	}
	s.liveTasks = n
	nEdges := g.NumEdges()
	s.edgeA = make([]int32, 0, nEdges)
	s.edgeB = make([]int32, 0, nEdges)
	s.edgeW = make([]float64, 0, nEdges)
	s.tree.init(nEdges)
	for v := 0; v < n; v++ {
		adj, w := g.Neighbors(v)
		a := &s.adj[v]
		a.nbr = make([]int32, len(adj))
		a.eid = make([]int32, len(adj))
		copy(a.nbr, adj)
		for i, u := range adj {
			if int32(v) < u {
				eid := int32(len(s.edgeA))
				s.edgeA = append(s.edgeA, int32(v))
				s.edgeB = append(s.edgeB, u)
				s.edgeW = append(s.edgeW, w[i])
				a.eid[i] = eid
			}
		}
	}
	// Second pass fills the back-references (u > v sees the edge id the
	// v < u pass assigned).
	for v := 0; v < n; v++ {
		a := &s.adj[v]
		for i, u := range a.nbr {
			if u < int32(v) {
				a.eid[i] = s.adj[u].edgeID(int32(v))
			}
		}
	}
	s.liveEdges = len(s.edgeA)
	for eid := range s.edgeA {
		s.tree.set(eid, s.edgeContribution(int32(eid)))
	}
	incCounters.states.Add(1)
	return s, nil
}

// edgeID returns the edge-record id shared with partner u, or -1.
func (a *incAdj) edgeID(u int32) int32 {
	i := sort.Search(len(a.nbr), func(i int) bool { return a.nbr[i] >= u })
	if i < len(a.nbr) && a.nbr[i] == u {
		return a.eid[i]
	}
	return -1
}

// insert adds partner u with edge id e, keeping ascending order.
func (a *incAdj) insert(u, e int32) {
	i := sort.Search(len(a.nbr), func(i int) bool { return a.nbr[i] >= u })
	a.nbr = append(a.nbr, 0)
	a.eid = append(a.eid, 0)
	copy(a.nbr[i+1:], a.nbr[i:])
	copy(a.eid[i+1:], a.eid[i:])
	a.nbr[i], a.eid[i] = u, e
}

// remove drops partner u. Reports whether u was present.
func (a *incAdj) remove(u int32) bool {
	i := sort.Search(len(a.nbr), func(i int) bool { return a.nbr[i] >= u })
	if i >= len(a.nbr) || a.nbr[i] != u {
		return false
	}
	a.nbr = append(a.nbr[:i], a.nbr[i+1:]...)
	a.eid = append(a.eid[:i], a.eid[i+1:]...)
	return true
}

// edgeContribution is edge e's current hop-bytes term w·d(P(a), P(b)).
func (s *IncrementalState) edgeContribution(e int32) float64 {
	return s.edgeW[e] * float64(s.d.Dist(s.proc[s.edgeA[e]], s.proc[s.edgeB[e]]))
}

// setLeaf writes edge e's contribution into the summation tree.
func (s *IncrementalState) setLeaf(e int32) {
	s.tree.set(int(e), s.edgeContribution(e))
	incCounters.edgeUpdates.Add(1)
}

// markMoved clears the clean bits that read task v's processor: its own,
// its partners' and their partners'. O(Σ_{u∈N(v)} deg(u)).
func (s *IncrementalState) markMoved(v int) {
	s.clean[v] = false
	for _, u := range s.adj[v].nbr {
		s.clean[u] = false
		for _, w := range s.adj[u].nbr {
			s.clean[w] = false
		}
	}
}

// markComm clears the clean bits that read task v's adjacency or edge
// weights: its own and its partners'.
func (s *IncrementalState) markComm(v int) {
	s.clean[v] = false
	for _, u := range s.adj[v].nbr {
		s.clean[u] = false
	}
}

// HopBytes returns the current total hop-bytes in O(1): the summation
// tree's root.
func (s *IncrementalState) HopBytes() float64 { return s.tree.total() }

// NumTasks returns the number of live tasks.
func (s *IncrementalState) NumTasks() int { return s.liveTasks }

// NumSlots returns the number of task-id slots ever allocated, live or
// dead. Valid task ids are [0, NumSlots()).
func (s *IncrementalState) NumSlots() int { return len(s.proc) }

// NumEdges returns the number of live communication edges.
func (s *IncrementalState) NumEdges() int { return s.liveEdges }

// Procs returns the processor count.
func (s *IncrementalState) Procs() int { return s.procs }

// Alive reports whether task id v is live.
func (s *IncrementalState) Alive(v int) bool {
	return v >= 0 && v < len(s.alive) && s.alive[v]
}

// Load returns task v's load (0 for dead slots).
func (s *IncrementalState) Load(v int) float64 { return s.load[v] }

// Proc returns task v's processor. Dead slots keep their last processor.
func (s *IncrementalState) Proc(v int) int { return s.proc[v] }

// Mapping returns a copy of the placement over all slots; dead slots keep
// the processor they held when removed, so the result is always safe to
// index per task id.
func (s *IncrementalState) Mapping() Mapping {
	m := make(Mapping, len(s.proc))
	copy(m, s.proc)
	return m
}

// ProcLoads returns the per-processor total load, summed in ascending
// task-id order so the result is bit-identical for any mutation history
// that produced the same per-task loads and placement.
func (s *IncrementalState) ProcLoads() []float64 {
	loads := make([]float64, s.procs)
	for v, p := range s.proc {
		if s.alive[v] {
			loads[p] += s.load[v]
		}
	}
	return loads
}

// TaskHopBytes returns the hop-bytes carried by task v's edges, summed in
// ascending partner order.
func (s *IncrementalState) TaskHopBytes(v int) float64 {
	hb := 0.0
	for _, e := range s.adj[v].eid {
		hb += s.tree.leaf(int(e))
	}
	return hb
}

func (s *IncrementalState) checkTask(v int) error {
	if v < 0 || v >= len(s.proc) || !s.alive[v] {
		return fmt.Errorf("core: incremental: no live task %d", v)
	}
	return nil
}

// SetLoad replaces task v's load.
func (s *IncrementalState) SetLoad(v int, load float64) error {
	if err := s.checkTask(v); err != nil {
		return err
	}
	if load < 0 {
		return fmt.Errorf("core: incremental: negative load for task %d", v)
	}
	s.load[v] = load
	incCounters.mutations.Add(1)
	return nil
}

// SetComm replaces the communication volume between tasks a and b.
// bytes > 0 creates the edge if absent; bytes == 0 removes it. Costs
// O(deg) for the adjacency edit plus O(log |E|) for the tree update.
func (s *IncrementalState) SetComm(a, b int, bytes float64) error {
	if err := s.checkTask(a); err != nil {
		return err
	}
	if err := s.checkTask(b); err != nil {
		return err
	}
	if a == b {
		return fmt.Errorf("core: incremental: self-communication on task %d", a)
	}
	if bytes < 0 {
		return fmt.Errorf("core: incremental: negative bytes between %d and %d", a, b)
	}
	e := s.adj[a].edgeID(int32(b))
	if e >= 0 || bytes > 0 {
		// One marking serves the adjacency before and after the edit: the
		// two differ only in a and b themselves.
		s.markComm(a)
		s.markComm(b)
	}
	switch {
	case e >= 0 && bytes > 0: // update
		s.edgeW[e] = bytes
		s.setLeaf(e)
	case e >= 0: // remove
		s.adj[a].remove(int32(b))
		s.adj[b].remove(int32(a))
		s.edgeW[e] = 0
		s.tree.set(int(e), 0)
		incCounters.edgeUpdates.Add(1)
		s.freeEdges = append(s.freeEdges, e)
		s.liveEdges--
	case bytes > 0: // insert
		if n := len(s.freeEdges); n > 0 {
			e = s.freeEdges[n-1]
			s.freeEdges = s.freeEdges[:n-1]
			s.edgeA[e], s.edgeB[e], s.edgeW[e] = int32(a), int32(b), bytes
		} else {
			e = int32(len(s.edgeA))
			s.edgeA = append(s.edgeA, int32(a))
			s.edgeB = append(s.edgeB, int32(b))
			s.edgeW = append(s.edgeW, bytes)
			s.tree.ensure(len(s.edgeA))
		}
		s.adj[a].insert(int32(b), e)
		s.adj[b].insert(int32(a), e)
		s.setLeaf(e)
		s.liveEdges++
	default: // absent and bytes == 0: nothing to do
	}
	incCounters.mutations.Add(1)
	return nil
}

// MoveTask reassigns task v to processor p, refreshing the contribution
// of each incident edge, O(deg(v)·log |E|), and clearing the clean bits of
// v, N(v) and N(N(v)), O(Σ_{u∈N(v)} deg(u)).
func (s *IncrementalState) MoveTask(v, p int) error {
	if err := s.checkTask(v); err != nil {
		return err
	}
	if p < 0 || p >= s.procs {
		return fmt.Errorf("core: incremental: processor %d out of [0,%d)", p, s.procs)
	}
	s.moveTask(v, p)
	incCounters.mutations.Add(1)
	return nil
}

// moveTask is MoveTask without validation, shared with the refiner.
func (s *IncrementalState) moveTask(v, p int) {
	if s.proc[v] == p {
		return
	}
	s.proc[v] = p
	eid := s.adj[v].eid
	for _, e := range eid {
		s.tree.set(int(e), s.edgeContribution(e))
	}
	incCounters.edgeUpdates.Add(int64(len(eid)))
	s.markMoved(v)
}

// AddTask creates a new task with the given load on processor p and
// returns its id. Ids are never reused, so a delta stream can keep
// referring to tasks by the id AddTask handed out. The new task starts
// unmigrated (its anchor is p) and with no communication edges.
func (s *IncrementalState) AddTask(load float64, p int) (int, error) {
	if load < 0 {
		return 0, fmt.Errorf("core: incremental: negative load for new task")
	}
	if p < 0 || p >= s.procs {
		return 0, fmt.Errorf("core: incremental: processor %d out of [0,%d)", p, s.procs)
	}
	v := len(s.proc)
	s.alive = append(s.alive, true)
	s.load = append(s.load, load)
	s.proc = append(s.proc, p)
	s.anchor = append(s.anchor, p)
	s.clean = append(s.clean, false)
	s.adj = append(s.adj, incAdj{})
	s.liveTasks++
	incCounters.mutations.Add(1)
	return v, nil
}

// RemoveTask deletes task v: all incident edges are removed and the slot
// goes dead (the id is retired, the last processor is remembered). Costs
// O(Σ_{u∈N(v)} deg(u)) twice over: for the partner adjacency edits, and
// for clearing the clean bits of N(v) and N(N(v)).
func (s *IncrementalState) RemoveTask(v int) error {
	if err := s.checkTask(v); err != nil {
		return err
	}
	s.markMoved(v)
	a := &s.adj[v]
	for i, u := range a.nbr {
		e := a.eid[i]
		s.adj[u].remove(int32(v))
		s.edgeW[e] = 0
		s.tree.set(int(e), 0)
		incCounters.edgeUpdates.Add(1)
		s.freeEdges = append(s.freeEdges, e)
		s.liveEdges--
	}
	a.nbr, a.eid = nil, nil
	s.alive[v] = false
	s.load[v] = 0
	s.liveTasks--
	incCounters.mutations.Add(1)
	return nil
}

// SetAnchor snapshots the current placement as the migration reference:
// refinement migration budgets and counts are measured against it. Clean
// bits read the anchors only through the migration cost they were
// computed under, and with every task on its anchor each candidate's
// migration delta is at its maximum (+1 a move, +2 a swap): at a cost of
// zero or more no score falls, so the bits survive.
func (s *IncrementalState) SetAnchor() {
	copy(s.anchor, s.proc)
	if s.cleanCost < 0 {
		clear(s.clean)
	}
}

// Migrations returns how many live tasks sit away from their anchor
// processor.
func (s *IncrementalState) Migrations() int {
	n := 0
	for v, p := range s.proc {
		if s.alive[v] && p != s.anchor[v] {
			n++
		}
	}
	return n
}

// Clone returns an independent deep copy sharing only the immutable
// topology: CloneInto with nothing to reuse.
func (s *IncrementalState) Clone() *IncrementalState { return s.CloneInto(nil) }

// CloneInto makes dst an independent deep copy of s, sharing only the
// immutable topology, and returns it; a nil dst is allocated. dst's slices
// are reused where they are large enough, so a caller that keeps the clone
// it did not adopt — the session layer refines a clone speculatively and
// adopts it only when the improvement clears the migration-cost threshold
// — pays a copy, not an allocation, per batch. All adjacency goes into one
// backing array, each task's lists capacity-clipped to their length so a
// later insert reallocates that task's lists privately. dst must not be s.
func (s *IncrementalState) CloneInto(dst *IncrementalState) *IncrementalState {
	if dst == nil {
		dst = &IncrementalState{}
	}
	dst.topo, dst.d, dst.procs = s.topo, s.d, s.procs
	dst.alive = append(dst.alive[:0], s.alive...)
	dst.load = append(dst.load[:0], s.load...)
	dst.proc = append(dst.proc[:0], s.proc...)
	dst.anchor = append(dst.anchor[:0], s.anchor...)
	dst.clean = append(dst.clean[:0], s.clean...)
	dst.cleanCost = s.cleanCost
	dst.edgeA = append(dst.edgeA[:0], s.edgeA...)
	dst.edgeB = append(dst.edgeB[:0], s.edgeB...)
	dst.edgeW = append(dst.edgeW[:0], s.edgeW...)
	dst.freeEdges = append(dst.freeEdges[:0], s.freeEdges...)
	dst.liveTasks, dst.liveEdges = s.liveTasks, s.liveEdges
	dst.tree.cloneFrom(&s.tree)

	// Each live edge sits in two adjacency lists; partner ids fill the
	// first half of the backing array, edge ids the second.
	half := 2 * s.liveEdges
	if cap(dst.adjBuf) < 2*half {
		dst.adjBuf = make([]int32, 2*half)
	}
	buf := dst.adjBuf[:2*half]
	if cap(dst.adj) < len(s.adj) {
		dst.adj = make([]incAdj, len(s.adj))
	}
	dst.adj = dst.adj[:len(s.adj)]
	off := 0
	for v := range s.adj {
		a := &s.adj[v]
		end := off + len(a.nbr)
		dst.adj[v] = incAdj{nbr: buf[off:end:end], eid: buf[half+off : half+end : half+end]}
		copy(dst.adj[v].nbr, a.nbr)
		copy(dst.adj[v].eid, a.eid)
		off = end
	}
	return dst
}

// Graph materializes the current communication graph. Dead slots become
// isolated zero-load vertices, so vertex ids equal task ids and the
// returned graph pairs with Mapping() for a full HopBytes recompute.
func (s *IncrementalState) Graph(name string) *taskgraph.Graph {
	b := taskgraph.NewBuilder(len(s.proc))
	for v := range s.proc {
		b.SetVertexWeight(v, s.load[v])
	}
	for v := range s.adj {
		a := &s.adj[v]
		for i, u := range a.nbr {
			if int32(v) < u {
				b.AddEdge(v, int(u), s.edgeW[a.eid[i]])
			}
		}
	}
	return b.Build(name)
}

// sumTree is a fixed-shape binary summation tree over float64 leaves.
// node[1] is the root; leaves live at node[cap .. cap+count). The shape
// (and therefore the floating-point association of the total) depends
// only on the leaf capacity, and capacity growth pads with zeros, which
// are additive identities — so totals are bit-identical across any
// history that reaches the same leaf values in the same positions.
type sumTree struct {
	cap  int // leaf capacity, power of two (or 1)
	node []float64
}

func treeCap(n int) int {
	c := 1
	for c < n {
		c <<= 1
	}
	return c
}

func (t *sumTree) init(leaves int) {
	t.cap = treeCap(leaves)
	t.node = make([]float64, 2*t.cap)
}

// ensure grows the tree to hold at least leaves leaves, preserving
// existing leaf values and positions.
func (t *sumTree) ensure(leaves int) {
	if leaves <= t.cap {
		return
	}
	old := t.node[t.cap:]
	t.init(leaves)
	copy(t.node[t.cap:], old)
	for i := t.cap - 1; i >= 1; i-- {
		t.node[i] = t.node[2*i] + t.node[2*i+1]
	}
}

func (t *sumTree) cloneFrom(src *sumTree) {
	t.cap = src.cap
	t.node = append(t.node[:0], src.node...)
}

// set writes leaf i and refreshes its root path: O(log cap).
func (t *sumTree) set(i int, v float64) {
	n := t.cap + i
	t.node[n] = v
	for n >>= 1; n >= 1; n >>= 1 {
		t.node[n] = t.node[2*n] + t.node[2*n+1]
	}
}

func (t *sumTree) leaf(i int) float64 { return t.node[t.cap+i] }

func (t *sumTree) total() float64 { return t.node[1] }
