package core

import (
	"fmt"
	"slices"
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
// # Rows
//
// The graph is one adjacency: task v's row lists its partners in
// ascending id order, each with the edge's weight and the id of the
// edge's leaf. Both rows of an edge carry its weight and leaf id, and the
// leaf id is the only identity an edge has; a contribution is computed
// from whichever row entry is at hand. The refiner scores candidates with
// SwapDelta straight off these rows. A removed edge's leaf is zeroed and
// pushed on a free list, and the next inserted edge pops it, so leaf ids —
// and with them the tree's shape and every total — follow the mutation
// history alone.
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
// # Undo
//
// RefineIncremental journals its accepted steps — each the task that
// moved and the processor it left — and Revert replays the journal
// backwards through the same move, so a caller can refine in place and
// take the result back when it does not pay, instead of refining a copy.
// The undo is exact: every touched edge leaf is rewritten at its original
// endpoints, so by the summation tree's exactness every total is
// bit-identical to the one before the call; each undo step clears the
// clean bits of its neighbourhood as any move does, so the bits that
// survive are sound at the restored placement. Every other exported
// mutator empties the journal, so a Revert after any of them does nothing.
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

	// adj[v] is task v's row (see "Rows"). The rows are laid out in one
	// backing array per field, kept for reuse by CloneInto.
	adj             []incRow
	nbrBuf, leafBuf []int32
	wBuf            []float64
	freeLeaves      []int32 // leaves of removed edges, zeroed, reused last-in first-out
	tree            sumTree
	liveTasks       int
	liveEdges       int

	// undo is the last RefineIncremental's accepted steps in order (see
	// "Undo"); emptied by every other exported mutator.
	undo []undoStep
}

// undoStep is one journaled refinement step: task moved off processor
// from.
type undoStep struct{ task, from int32 }

// incRow is one task's row: partner ids (sorted ascending) and, entry for
// entry, the shared edge's weight and leaf id.
type incRow struct {
	nbr  []int32
	w    []float64
	leaf []int32
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
		d:      topology.MatrixDists(t), // matrix rows even where labels exist: see DESIGN §6
		procs:  t.Nodes(),
		alive:  make([]bool, n),
		load:   make([]float64, n),
		proc:   make([]int, n),
		anchor: make([]int, n),
		clean:  make([]bool, n),
	}
	copy(s.proc, m)
	copy(s.anchor, m)
	for v := 0; v < n; v++ {
		s.alive[v] = true
		s.load[v] = g.VertexWeight(v)
	}
	s.liveTasks = n
	s.reserveRows(n, 2*g.NumEdges())
	s.tree.init(g.NumEdges())
	off := 0
	for v := 0; v < n; v++ {
		adj, w := g.Neighbors(v)
		r := s.carveRow(v, off, off+len(adj))
		off += len(adj)
		copy(r.nbr, adj)
		copy(r.w, w)
		// Leaves go to the edges in CSR order, each from its lower end's
		// row; the higher end, met later, copies the id from that row.
		for i, u := range adj {
			if int32(v) < u {
				r.leaf[i] = int32(s.liveEdges)
				s.liveEdges++
				s.setLeaf(v, i)
			} else {
				ru := &s.adj[u]
				j, _ := ru.search(int32(v))
				r.leaf[i] = ru.leaf[j]
			}
		}
	}
	incCounters.states.Add(1)
	return s, nil
}

// reserveRows sizes adj to n rows and each backing array to entries, the
// rows' total length, reusing the slices where they are large enough.
func (s *IncrementalState) reserveRows(n, entries int) {
	if cap(s.nbrBuf) < entries {
		s.nbrBuf = make([]int32, entries)
		s.leafBuf = make([]int32, entries)
		s.wBuf = make([]float64, entries)
	}
	s.nbrBuf, s.leafBuf, s.wBuf = s.nbrBuf[:entries], s.leafBuf[:entries], s.wBuf[:entries]
	if cap(s.adj) < n {
		s.adj = make([]incRow, n)
	}
	s.adj = s.adj[:n]
}

// carveRow makes entries [off, end) of the backing arrays task v's row and
// returns it. Each field is capacity-clipped to the row, so a later insert
// reallocates that row privately instead of overwriting the next one.
func (s *IncrementalState) carveRow(v, off, end int) *incRow {
	s.adj[v] = incRow{nbr: s.nbrBuf[off:end:end], w: s.wBuf[off:end:end], leaf: s.leafBuf[off:end:end]}
	return &s.adj[v]
}

// search returns the index of partner u in the row, or the index it would
// be inserted at, and whether it is there.
func (r *incRow) search(u int32) (int, bool) {
	i := sort.Search(len(r.nbr), func(i int) bool { return r.nbr[i] >= u })
	return i, i < len(r.nbr) && r.nbr[i] == u
}

// insert puts partner u, with weight w and leaf id leaf, at index i.
func (r *incRow) insert(i int, u int32, w float64, leaf int32) {
	r.nbr = slices.Insert(r.nbr, i, u)
	r.w = slices.Insert(r.w, i, w)
	r.leaf = slices.Insert(r.leaf, i, leaf)
}

// remove drops the entry at index i.
func (r *incRow) remove(i int) {
	r.nbr = slices.Delete(r.nbr, i, i+1)
	r.w = slices.Delete(r.w, i, i+1)
	r.leaf = slices.Delete(r.leaf, i, i+1)
}

// setLeaf writes the current contribution of task v's entry i,
// w·d(P(v), P(u)), into the edge's leaf.
func (s *IncrementalState) setLeaf(v, i int) {
	r := &s.adj[v]
	s.tree.set(int(r.leaf[i]), r.w[i]*float64(s.d.Dist(s.proc[v], s.proc[r.nbr[i]])))
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

func (s *IncrementalState) checkTask(v int) error {
	if v < 0 || v >= len(s.proc) || !s.alive[v] {
		return fmt.Errorf("core: incremental: no live task %d", v)
	}
	return nil
}

// SetLoad replaces task v's load.
func (s *IncrementalState) SetLoad(v int, load float64) error {
	s.undo = s.undo[:0]
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
	s.undo = s.undo[:0]
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
	ra, rb := &s.adj[a], &s.adj[b]
	i, found := ra.search(int32(b))
	if !found && !(bytes > 0) {
		incCounters.mutations.Add(1)
		return nil // absent and staying so
	}
	// One marking serves the adjacency before and after the edit: the two
	// differ only in a and b themselves.
	s.markComm(a)
	s.markComm(b)
	j, _ := rb.search(int32(a))
	switch {
	case found && bytes > 0: // update
		ra.w[i], rb.w[j] = bytes, bytes
		s.setLeaf(a, i)
	case found: // remove
		e := ra.leaf[i]
		ra.remove(i)
		rb.remove(j)
		s.tree.set(int(e), 0)
		s.freeLeaves = append(s.freeLeaves, e)
		s.liveEdges--
	default: // insert, into the leaf freed last or else a new one
		var e int32
		if n := len(s.freeLeaves); n > 0 {
			e = s.freeLeaves[n-1]
			s.freeLeaves = s.freeLeaves[:n-1]
		} else {
			e = int32(s.liveEdges) // every leaf id below it is live
			s.tree.ensure(s.liveEdges + 1)
		}
		ra.insert(i, int32(b), bytes, e)
		rb.insert(j, int32(a), bytes, e)
		s.setLeaf(a, i)
		s.liveEdges++
	}
	incCounters.edgeUpdates.Add(1)
	incCounters.mutations.Add(1)
	return nil
}

// MoveTask reassigns task v to processor p, refreshing the contribution
// of each incident edge, O(deg(v)·log |E|), and clearing the clean bits of
// v, N(v) and N(N(v)), O(Σ_{u∈N(v)} deg(u)).
func (s *IncrementalState) MoveTask(v, p int) error {
	s.undo = s.undo[:0]
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
	leaves := s.adj[v].leaf
	for i := range leaves {
		s.setLeaf(v, i)
	}
	incCounters.edgeUpdates.Add(int64(len(leaves)))
	s.markMoved(v)
}

// AddTask creates a new task with the given load on processor p and
// returns its id. Ids are never reused, so a delta stream can keep
// referring to tasks by the id AddTask handed out. The new task starts
// unmigrated (its anchor is p) and with no communication edges.
func (s *IncrementalState) AddTask(load float64, p int) (int, error) {
	s.undo = s.undo[:0]
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
	s.adj = append(s.adj, incRow{})
	s.liveTasks++
	incCounters.mutations.Add(1)
	return v, nil
}

// RemoveTask deletes task v: all incident edges are removed and the slot
// goes dead (the id is retired, the last processor is remembered). Costs
// O(Σ_{u∈N(v)} deg(u)) twice over: for the partner adjacency edits, and
// for clearing the clean bits of N(v) and N(N(v)).
func (s *IncrementalState) RemoveTask(v int) error {
	s.undo = s.undo[:0]
	if err := s.checkTask(v); err != nil {
		return err
	}
	s.markMoved(v)
	r := &s.adj[v]
	for i, u := range r.nbr {
		e := r.leaf[i]
		ru := &s.adj[u]
		j, _ := ru.search(int32(v))
		ru.remove(j)
		s.tree.set(int(e), 0)
		s.freeLeaves = append(s.freeLeaves, e)
		s.liveEdges--
	}
	incCounters.edgeUpdates.Add(int64(len(r.nbr)))
	*r = incRow{}
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
	s.undo = s.undo[:0]
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

// Revert undoes the accepted steps of the last RefineIncremental, last
// step first, when no other exported mutator has run since (see "Undo");
// otherwise it does nothing. Placement, hop-bytes bits and the migration
// count return to what they were before the call; clean bits stay set
// wherever the undo left their inputs unchanged. O(Σ deg) over the steps
// undone, plus their clean-bit clearing.
func (s *IncrementalState) Revert() {
	for i := len(s.undo) - 1; i >= 0; i-- {
		s.moveTask(int(s.undo[i].task), int(s.undo[i].from))
	}
	s.undo = s.undo[:0]
}

// Clone returns an independent deep copy sharing only the immutable
// topology: CloneInto with nothing to reuse.
func (s *IncrementalState) Clone() *IncrementalState { return s.CloneInto(nil) }

// CloneInto makes dst an independent deep copy of s, sharing only the
// immutable topology, and returns it; a nil dst is allocated. dst's slices
// are reused where they are large enough, so a caller that copies
// repeatedly — a benchmark resetting to one state, a replay that refines
// copies — pays a copy, not an allocation, each time. The rows are laid
// out as NewIncrementalState lays them out, one backing array per field.
// The copy's undo journal starts empty: Revert undoes only refinement of
// the state it is called on. dst must not be s.
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
	dst.freeLeaves = append(dst.freeLeaves[:0], s.freeLeaves...)
	dst.liveTasks, dst.liveEdges = s.liveTasks, s.liveEdges
	dst.undo = dst.undo[:0]
	dst.tree.cloneFrom(&s.tree)

	// Each live edge sits in two rows.
	dst.reserveRows(len(s.adj), 2*s.liveEdges)
	off := 0
	for v := range s.adj {
		r := &s.adj[v]
		end := off + len(r.nbr)
		c := dst.carveRow(v, off, end)
		copy(c.nbr, r.nbr)
		copy(c.w, r.w)
		copy(c.leaf, r.leaf)
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
		r := &s.adj[v]
		for i, u := range r.nbr {
			if int32(v) < u {
				b.AddEdge(v, int(u), r.w[i])
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
