package core

import "math"

// IncRefineOptions configures RefineIncremental.
type IncRefineOptions struct {
	// MaxPasses bounds the number of full sweeps; zero means 8.
	MaxPasses int
	// MaxMigrations caps how many live tasks may sit away from their
	// anchor processor at any point during refinement (the migration
	// budget B of the online remapping loop). Negative means unlimited;
	// zero forbids any migration.
	MaxMigrations int
	// MigrationCost is the hop-bytes-equivalent penalty charged per task
	// that a candidate move/swap takes off its anchor (and credited per
	// task it brings back). It steers refinement toward low-churn
	// improvements — the paper's §5.1 observation that remapping gains
	// must outweigh the cost of migrating chare state.
	MigrationCost float64
	// LoadTolerance bounds per-processor load growth: a task may move to a
	// processor only while its total load stays within (1+LoadTolerance)
	// of the average (task counts are used when all loads are zero).
	// Zero means 0.10.
	LoadTolerance float64
}

func (o IncRefineOptions) maxPasses() int {
	if o.MaxPasses <= 0 {
		return 8
	}
	return o.MaxPasses
}

func (o IncRefineOptions) loadTolerance() float64 {
	if o.LoadTolerance <= 0 {
		return 0.10
	}
	return o.LoadTolerance
}

// IncRefineResult reports one RefineIncremental run.
type IncRefineResult struct {
	// Moves and Swaps count accepted refinement steps.
	Moves, Swaps int
	// Migrations is the number of live tasks off their anchor processor
	// after refinement — never more than the budget.
	Migrations int
	// BudgetSaturated reports whether refinement ended with the migration
	// budget fully spent (a larger budget might have found more).
	BudgetSaturated bool
	// HopBytesBefore and HopBytesAfter are the totals around the run.
	HopBytesBefore, HopBytesAfter float64
}

// RefineIncremental improves the placement in place by local moves and
// pairwise swaps, sweeping like RefineTopoLB and scoring with its kernel,
// SwapDelta, over the incremental state's rows: for each live task the
// candidates are (a) moving it to a communication partner's processor,
// (b) moving it to a processor adjacent to its own, and (c) swapping it
// with a communication partner.
// A candidate is accepted only when its hop-bytes change plus the
// migration penalty (MigrationCost × change in off-anchor task count) is
// strictly negative, the per-processor load bound holds, and the
// migration budget is not exceeded. Accepted steps update the hop-bytes
// summation tree in O(deg·log |E|).
//
// The run is serial — a task's O(deg) candidates are far too little work
// to fork over, and concurrency comes from refining many states at once —
// so the placement is trivially byte-identical for any GOMAXPROCS. Its
// cost follows what changed since the last call, not the size of the job:
// a task whose clean bit is set (see IncrementalState, "Clean bits") is
// passed over in O(1), which changes no placement, total or result — a
// clean task is one the full scan would have accepted nothing for.
//
// The accepted steps are journaled, so Revert can take the run back
// exactly (see IncrementalState, "Undo").
func (s *IncrementalState) RefineIncremental(opts IncRefineOptions) IncRefineResult {
	incCounters.refineCalls.Add(1)
	s.undo = s.undo[:0]
	res := IncRefineResult{HopBytesBefore: s.HopBytes()}
	//lint:ignore floatcmp the bits hold for exactly the cost they were computed under
	if opts.MigrationCost != s.cleanCost {
		clear(s.clean)
		s.cleanCost = opts.MigrationCost
	}

	r := &incRefiner{
		s:         s,
		opts:      opts,
		procLoad:  s.ProcLoads(),
		procCount: make([]int, s.procs),
		migrated:  s.Migrations(),
	}
	totalLoad := 0.0
	for v, l := range s.load {
		if s.alive[v] {
			totalLoad += l
		}
	}
	tol := opts.loadTolerance()
	if totalLoad > 0 {
		r.loadLimit = (1 + tol) * totalLoad / float64(s.procs)
	} else {
		r.countLimit = int(math.Ceil((1 + tol) * float64(s.liveTasks) / float64(s.procs)))
	}
	for v, p := range s.proc {
		if s.alive[v] {
			r.procCount[p]++
		}
	}

	n := len(s.proc)
	for pass := 0; pass < opts.maxPasses(); pass++ {
		improved := 0
		for a := 0; a < n; a++ {
			if !s.alive[a] {
				continue
			}
			improved += r.sweepTask(a)
		}
		res.Moves += r.moves
		res.Swaps += r.swaps
		r.moves, r.swaps = 0, 0
		if improved == 0 {
			break
		}
	}
	incCounters.refineEval.Add(r.evaluated)
	incCounters.refineSkip.Add(r.skipped)
	res.Migrations = r.migrated
	res.BudgetSaturated = opts.MaxMigrations >= 0 && r.migrated >= opts.MaxMigrations
	res.HopBytesAfter = s.HopBytes()
	return res
}

// incRefiner carries one RefineIncremental run's working state.
type incRefiner struct {
	s    *IncrementalState
	opts IncRefineOptions

	procLoad   []float64
	procCount  []int
	loadLimit  float64 // weighted-load bound; used when > 0
	countLimit int     // task-count bound; used when loadLimit == 0
	migrated   int     // live tasks currently off-anchor

	moves, swaps       int
	evaluated, skipped int64 // task visits that scored candidates / hit the clean bit
}

// sweepTask scans task a's candidates in order — moves to partners'
// processors, moves to processors adjacent to a's own (as it stood when
// the scan began), swaps with partners — applying each improving one as it
// is met and scanning on from the next. A clean task returns at once; a
// scan that accepted nothing and met no negative delta, gated or not,
// marks the task clean. Returns the number of accepted steps.
//
//lint:hotpath session remap inner loop: runs for every live task on every pass of every delta batch; a clean task must cost O(1) and a dirty one allocate nothing
func (r *incRefiner) sweepTask(a int) int {
	s := r.s
	if s.clean[a] {
		r.skipped++
		return 0
	}
	r.evaluated++
	ra := &s.adj[a]
	//lint:ignore hotalloc every Topology hands out a neighbour list it built once; one call per scored task, none on the clean path
	topoNbrs := s.topo.Neighbors(s.proc[a])
	accepted := 0
	// markable: nothing met so far has a negative delta. A gated
	// candidate's delta matters only to the clean bit, so it is computed
	// only while markable holds.
	markable := true
	for _, u := range ra.nbr {
		if p := s.proc[u]; r.moveScore(a, ra, p, &markable) {
			r.applyMove(a, p)
			accepted++
		}
	}
	for _, p := range topoNbrs {
		if r.moveScore(a, ra, p, &markable) {
			r.applyMove(a, p)
			accepted++
		}
	}
	for _, u := range ra.nbr {
		if r.swapScore(a, ra, int(u), &markable) {
			r.applySwap(a, int(u))
			accepted++
		}
	}
	// An accepted step had a negative delta, so a task that moved is
	// never marked (and moveTask cleared whatever its partners held).
	s.clean[a] = markable
	return accepted
}

// moveScore reports whether moving task a, whose row is ra, to processor p
// strictly improves the penalized objective within the load bound and the
// migration budget. It clears *markable when the move's delta is negative,
// whether or not a gate stops it.
//
//lint:hotpath see sweepTask
func (r *incRefiner) moveScore(a int, ra *incRow, p int, markable *bool) bool {
	s := r.s
	pa := s.proc[a]
	if p == pa {
		return false
	}
	migDelta := b2i(p != s.anchor[a]) - b2i(pa != s.anchor[a])
	// Load bound: growing p's load is only allowed up to the limit
	// (zero-load tasks move freely — they change nothing).
	gated := false
	if r.loadLimit > 0 {
		nl := r.procLoad[p] + s.load[a]
		gated = nl > r.loadLimit && nl > r.procLoad[p]
	} else {
		gated = r.procCount[p]+1 > r.countLimit
	}
	gated = gated || (r.opts.MaxMigrations >= 0 && r.migrated+migDelta > r.opts.MaxMigrations)
	if gated && !*markable {
		return false
	}
	if SwapDelta(&s.d, s.proc, pa, p, a, ra.nbr, ra.w, -1, nil, nil)+float64(r.opts.MigrationCost*float64(migDelta)) < -1e-12 {
		*markable = false
		return !gated
	}
	return false
}

// swapScore is moveScore for exchanging the processors of tasks a and b.
//
//lint:hotpath see sweepTask
func (r *incRefiner) swapScore(a int, ra *incRow, b int, markable *bool) bool {
	s := r.s
	pa, pb := s.proc[a], s.proc[b]
	if a == b || pa == pb {
		return false
	}
	gated := false
	if r.loadLimit > 0 {
		la, lb := s.load[a], s.load[b]
		nA := r.procLoad[pa] - la + lb
		nB := r.procLoad[pb] - lb + la
		gated = (nA > r.loadLimit && nA > r.procLoad[pa]) || (nB > r.loadLimit && nB > r.procLoad[pb])
	}
	migDelta := b2i(pb != s.anchor[a]) + b2i(pa != s.anchor[b]) -
		b2i(pa != s.anchor[a]) - b2i(pb != s.anchor[b])
	gated = gated || (r.opts.MaxMigrations >= 0 && r.migrated+migDelta > r.opts.MaxMigrations)
	if gated && !*markable {
		return false
	}
	rb := &s.adj[b]
	if SwapDelta(&s.d, s.proc, pa, pb, a, ra.nbr, ra.w, b, rb.nbr, rb.w)+float64(r.opts.MigrationCost*float64(migDelta)) < -1e-12 {
		*markable = false
		return !gated
	}
	return false
}

// applyMove commits moving task a to processor p, updating the placement,
// the summation tree, per-processor loads and counts, and the migration
// count.
func (r *incRefiner) applyMove(a, p int) {
	s := r.s
	pa := s.proc[a]
	r.migrated += b2i(p != s.anchor[a]) - b2i(pa != s.anchor[a])
	r.procLoad[pa] -= s.load[a]
	r.procLoad[p] += s.load[a]
	r.procCount[pa]--
	r.procCount[p]++
	//lint:ignore hotalloc the journal keeps its capacity across calls, so it grows only while one run accepts more steps than any before it; pinned by TestSessionBatchAllocs
	s.undo = append(s.undo, undoStep{int32(a), int32(pa)})
	s.moveTask(a, p)
	r.moves++
	incCounters.refineMoves.Add(1)
}

// applySwap commits exchanging the processors of tasks a and b.
func (r *incRefiner) applySwap(a, b int) {
	s := r.s
	pa, pb := s.proc[a], s.proc[b]
	r.migrated += b2i(pb != s.anchor[a]) + b2i(pa != s.anchor[b]) -
		b2i(pa != s.anchor[a]) - b2i(pb != s.anchor[b])
	la, lb := s.load[a], s.load[b]
	r.procLoad[pa] += lb - la
	r.procLoad[pb] += la - lb
	//lint:ignore hotalloc the journal keeps its capacity across calls, so it grows only while one run accepts more steps than any before it; pinned by TestSessionBatchAllocs
	s.undo = append(s.undo, undoStep{int32(a), int32(pa)}, undoStep{int32(b), int32(pb)})
	s.moveTask(a, pb)
	s.moveTask(b, pa)
	r.swaps++
	incCounters.refineSwaps.Add(1)
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
