package core

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/topology"
)

// wipeClean forgets every memoized negative result, turning the next
// RefineIncremental into the full scan the memo must be invisible beside.
func (s *IncrementalState) wipeClean() { clear(s.clean) }

// memoPair drives two states through one stream of operations: memo
// keeps its clean bits, ref has them wiped before every RefineIncremental.
// The two must never differ in placement, hop-bytes or refinement result,
// and every clean bit of memo must survive a brute-force re-score.
type memoPair struct {
	tb        testing.TB
	to        topology.Topology
	memo, ref *IncrementalState
	// Spares for the clone-then-adopt-or-drop step, as the session layer
	// keeps them.
	memoSpare, refSpare *IncrementalState
	opts                IncRefineOptions
	baseCost            float64 // opts.MigrationCost as configured; the stream moves it
	zeroLoads           bool    // all loads zero: the task-count limit applies
}

func newMemoPair(tb testing.TB, seed int64, opts IncRefineOptions, zeroLoads bool) *memoPair {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	to := topology.MustTorus(4, 4)
	const n = 48 // tasks outnumber processors
	g := intWeightGraph(n, 2*n, rng)
	start := randomPlacement(n, to.Nodes(), rng)
	p := &memoPair{tb: tb, to: to, opts: opts, baseCost: opts.MigrationCost, zeroLoads: zeroLoads}
	for _, dst := range []**IncrementalState{&p.memo, &p.ref} {
		s, err := NewIncrementalState(g, to, start)
		if err != nil {
			tb.Fatal(err)
		}
		if zeroLoads {
			for v := range s.load {
				s.load[v] = 0
			}
		}
		*dst = s
	}
	return p
}

// opBytes reads a stream of operations: two bytes per draw, zeros once
// the data runs out.
type opBytes struct {
	data []byte
	i    int
}

func (b *opBytes) more() bool { return b.i < len(b.data) }

func (b *opBytes) pick(n int) int {
	v := 0
	for k := 0; k < 2; k++ {
		v <<= 8
		if b.i < len(b.data) {
			v |= int(b.data[b.i])
		}
		b.i++
	}
	return v % n
}

// run interprets data as operations on both states, checking after each.
func (p *memoPair) run(data []byte) {
	p.tb.Helper()
	b := &opBytes{data: data}
	for step := 0; b.more(); step++ {
		ctx := fmt.Sprintf("step %d", step)
		slots := p.memo.NumSlots()
		switch op := b.pick(12); op {
		case 0: // re-measure a load
			v, load := b.pick(slots), float64(b.pick(10))
			if p.zeroLoads {
				load = 0
			}
			p.both(ctx, func(s *IncrementalState) error { return s.SetLoad(v, load) })
		case 1: // insert (or update) an edge between two arbitrary tasks
			a, c, w := b.pick(slots), b.pick(slots), float64(1+b.pick(1000))
			p.both(ctx, func(s *IncrementalState) error { return s.SetComm(a, c, w) })
		case 2, 3: // update (2) or remove (3) an existing edge
			a := b.pick(slots)
			if nbr := p.memo.adj[a].nbr; len(nbr) > 0 {
				c, w := int(nbr[b.pick(len(nbr))]), float64(1+b.pick(1000))
				if op == 3 {
					w = 0
				}
				p.both(ctx, func(s *IncrementalState) error { return s.SetComm(a, c, w) })
			}
		case 4:
			load, proc := float64(b.pick(10)), b.pick(p.to.Nodes())
			if p.zeroLoads {
				load = 0
			}
			if slots < 96 {
				p.both(ctx, func(s *IncrementalState) error { _, err := s.AddTask(load, proc); return err })
			}
		case 5:
			v := b.pick(slots)
			if p.memo.NumTasks() > 8 {
				p.both(ctx, func(s *IncrementalState) error { return s.RemoveTask(v) })
			}
		case 6:
			v, proc := b.pick(slots), b.pick(p.to.Nodes())
			p.both(ctx, func(s *IncrementalState) error { return s.MoveTask(v, proc) })
		case 7:
			p.both(ctx, func(s *IncrementalState) error { s.SetAnchor(); return nil })
		case 8: // refine a clone; adopt it or keep it as the next spare
			adopt := b.pick(2) == 1
			mc, rc := p.memo.CloneInto(p.memoSpare), p.ref.CloneInto(p.refSpare)
			p.refine(ctx+" (clone)", mc, rc)
			if adopt {
				mc.SetAnchor()
				rc.SetAnchor()
				p.memo, p.memoSpare = mc, p.memo
				p.ref, p.refSpare = rc, p.ref
			} else {
				p.memoSpare, p.refSpare = mc, rc
			}
		case 9: // the caller changes its mind about what a migration costs
			p.opts.MigrationCost = p.baseCost + 3*float64(b.pick(2))
		default: // 10, 11: refine in place
			p.refine(ctx, p.memo, p.ref)
		}
		p.same(ctx, p.memo, p.ref)
		requireCleanSound(p.tb, p.memo, p.to, ctx)
	}
}

// both applies one mutation to both states; they must agree on whether
// it is valid.
func (p *memoPair) both(ctx string, op func(*IncrementalState) error) {
	p.tb.Helper()
	em, er := op(p.memo), op(p.ref)
	if (em == nil) != (er == nil) {
		p.tb.Fatalf("%s: memo state says %v, reference says %v", ctx, em, er)
	}
}

func (p *memoPair) refine(ctx string, m, r *IncrementalState) {
	p.tb.Helper()
	r.wipeClean()
	rm, rr := m.RefineIncremental(p.opts), r.RefineIncremental(p.opts)
	if rm.Moves != rr.Moves || rm.Swaps != rr.Swaps || rm.Migrations != rr.Migrations ||
		rm.BudgetSaturated != rr.BudgetSaturated ||
		math.Float64bits(rm.HopBytesBefore) != math.Float64bits(rr.HopBytesBefore) ||
		math.Float64bits(rm.HopBytesAfter) != math.Float64bits(rr.HopBytesAfter) {
		p.tb.Fatalf("%s: with the memo %+v, without %+v", ctx, rm, rr)
	}
	p.same(ctx, m, r)
	requireCleanSound(p.tb, m, p.to, ctx)
	requireExact(p.tb, m, p.to, ctx)
}

func (p *memoPair) same(ctx string, m, r *IncrementalState) {
	p.tb.Helper()
	if math.Float64bits(m.HopBytes()) != math.Float64bits(r.HopBytes()) {
		p.tb.Fatalf("%s: hop-bytes %v with the memo, %v without", ctx, m.HopBytes(), r.HopBytes())
	}
	mm, rm := m.Mapping(), r.Mapping()
	if len(mm) != len(rm) {
		p.tb.Fatalf("%s: %d slots with the memo, %d without", ctx, len(mm), len(rm))
	}
	for v := range mm {
		if mm[v] != rm[v] {
			p.tb.Fatalf("%s: task %d on %d with the memo, %d without", ctx, v, mm[v], rm[v])
		}
	}
}

// requireCleanSound re-scores every clean task by brute force — each
// candidate's hop-bytes change recomputed edge by edge from the topology's
// own Distance under the hypothetical placement — and fails on any
// negative ungated delta. Weights in these tests are integers, so the
// brute-force sums are exact whatever their order.
func requireCleanSound(tb testing.TB, s *IncrementalState, to topology.Topology, ctx string) {
	tb.Helper()
	place := func(v, a, pa, b, pb int) int { // v's processor once a sits on pa and b on pb
		switch v {
		case a:
			return pa
		case b:
			return pb
		}
		return s.proc[v]
	}
	// delta of putting a on pa and b on pb (b < 0: a alone moves).
	delta := func(a, pa, b, pb int) float64 {
		d := 0.0
		for _, v := range []int{a, b} {
			if v < 0 {
				continue
			}
			for i, u := range s.adj[v].nbr {
				if v == b && int(u) == a {
					continue // the a–b edge was counted from a's side
				}
				w := s.adj[v].w[i]
				after := to.Distance(place(v, a, pa, b, pb), place(int(u), a, pa, b, pb))
				before := to.Distance(s.proc[v], s.proc[u])
				d += w * float64(after-before)
			}
		}
		return d
	}
	off := func(v, p int) int { return b2i(p != s.anchor[v]) }
	for a := range s.clean {
		if !s.alive[a] || !s.clean[a] {
			continue
		}
		pa := s.proc[a]
		var targets []int
		for _, u := range s.adj[a].nbr {
			targets = append(targets, s.proc[u])
		}
		targets = append(targets, to.Neighbors(pa)...)
		for _, p := range targets {
			if p == pa {
				continue
			}
			mig := off(a, p) - off(a, pa)
			if d := delta(a, p, -1, 0) + s.cleanCost*float64(mig); d < -1e-12 {
				tb.Fatalf("%s: task %d is clean but moving it %d -> %d scores %v", ctx, a, pa, p, d)
			}
		}
		for _, u := range s.adj[a].nbr {
			b, pb := int(u), s.proc[u]
			if pb == pa {
				continue
			}
			mig := off(a, pb) + off(b, pa) - off(a, pa) - off(b, pb)
			if d := delta(a, pb, b, pa) + s.cleanCost*float64(mig); d < -1e-12 {
				tb.Fatalf("%s: task %d is clean but swapping it with %d scores %v", ctx, a, b, d)
			}
		}
	}
}

// memoConfigs is the grid the differential test and the fuzzer draw from:
// both migration costs, every budget regime and a load tolerance tight
// enough that the gates bite — plus one negative cost, a reward for
// migrating that no session may ask for but the one setting under which
// re-anchoring, or a task born clean, could hide an improving candidate.
func memoConfigs() (opts []IncRefineOptions) {
	for _, cost := range []float64{0, 10} {
		for _, budget := range []int{-1, 0, 5, 64} {
			opts = append(opts, IncRefineOptions{
				MaxPasses: 3, MaxMigrations: budget, MigrationCost: cost, LoadTolerance: 0.05,
			})
		}
	}
	return append(opts, IncRefineOptions{MaxPasses: 3, MaxMigrations: 5, MigrationCost: -7, LoadTolerance: 0.05})
}

// TestRefineMemoDifferential: over a seeded stream of every kind of
// mutation, refinement with the clean-bit memo is indistinguishable from
// refinement without it, and the memo's bits are sound after every step —
// at GOMAXPROCS 1, 2 and 8.
func TestRefineMemoDifferential(t *testing.T) {
	orig := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(orig)
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for i, opts := range memoConfigs() {
			for _, zeroLoads := range []bool{false, true} {
				seed := int64(100*i + b2i(zeroLoads))
				data := make([]byte, 1500)
				rand.New(rand.NewSource(seed)).Read(data)
				newMemoPair(t, seed, opts, zeroLoads).run(data)
			}
		}
	}
}

// TestRefineMemoSkips: the memo is not vacuous — a second refinement of
// an unchanged state scores nothing, and one small mutation re-scores
// only its neighbourhood.
func TestRefineMemoSkips(t *testing.T) {
	s, _ := probeState(t)
	// No gate in the way, so convergence leaves every task clean.
	opts := IncRefineOptions{MaxPasses: 1 << 20, MaxMigrations: -1, LoadTolerance: 1e9}
	s.RefineIncremental(opts)
	for v, c := range s.clean {
		if !c {
			t.Fatalf("task %d still dirty after unbudgeted convergence", v)
		}
	}
	visits := func(f func()) (evaluated, skipped int64) {
		c0 := IncrementalCounters()
		f()
		c1 := IncrementalCounters()
		return c1.RefineEvaluated - c0.RefineEvaluated, c1.RefineSkipped - c0.RefineSkipped
	}
	if ev, sk := visits(func() { s.RefineIncremental(opts) }); ev != 0 || sk != int64(s.NumTasks()) {
		t.Errorf("unchanged state: %d tasks scored, %d skipped; want 0, %d", ev, sk, s.NumTasks())
	}
	if err := s.SetComm(100, 101, 5e5); err != nil {
		t.Fatal(err)
	}
	ev, _ := visits(func() { s.RefineIncremental(IncRefineOptions{MaxPasses: 1, MaxMigrations: 0}) })
	if want := int64(len(s.adj[100].nbr) + len(s.adj[101].nbr)); ev == 0 || ev > want {
		t.Errorf("one comm delta: %d tasks scored, want 1..%d", ev, want)
	}
}

// TestSessionBatchAllocs is the dynamic half of the //lint:hotpath tags on
// sweepTask, moveScore and swapScore: one remap step on an all-clean
// 4096-task state — clone into the spare, refine — allocates nothing but
// RefineIncremental's per-call scratch.
func TestSessionBatchAllocs(t *testing.T) {
	s, _ := probeState(t)
	s.RefineIncremental(IncRefineOptions{MaxPasses: 1 << 20, MaxMigrations: -1, LoadTolerance: 1e9})
	spare := s.Clone()
	allocs := testing.AllocsPerRun(20, func() {
		s.CloneInto(spare).RefineIncremental(probeOpts)
	})
	if allocs > 4 {
		t.Errorf("clean-state remap step allocates %v objects, want <= 4", allocs)
	}
}

// TestCloneIntoIndependent: a clone built in a reused destination shares
// no adjacency storage with its source or with what the destination held.
func TestCloneIntoIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	to := topology.MustTorus(4, 4)
	g := intWeightGraph(40, 60, rng)
	s, err := NewIncrementalState(g, to, randomPlacement(40, to.Nodes(), rng))
	if err != nil {
		t.Fatal(err)
	}
	var spare *IncrementalState
	for round := 0; round < 6; round++ {
		c := s.CloneInto(spare)
		before := s.HopBytes()
		// Grow, shrink and re-weigh the clone's adjacency inside the
		// shared backing array's reach.
		for k := 0; k < 30; k++ {
			a, b := rng.Intn(c.NumSlots()), rng.Intn(c.NumSlots())
			if a != b && c.Alive(a) && c.Alive(b) {
				if err := c.SetComm(a, b, float64(rng.Intn(3)*500)); err != nil {
					t.Fatal(err)
				}
			}
		}
		if _, err := c.AddTask(1, 0); err != nil {
			t.Fatal(err)
		}
		if v := rng.Intn(30); c.Alive(v) {
			if err := c.RemoveTask(v); err != nil {
				t.Fatal(err)
			}
		}
		c.RefineIncremental(IncRefineOptions{MaxMigrations: -1})
		if math.Float64bits(s.HopBytes()) != math.Float64bits(before) {
			t.Fatalf("round %d: clone mutations changed the source: %v -> %v", round, before, s.HopBytes())
		}
		requireExact(t, s, to, "source")
		requireExact(t, c, to, "clone")
		// Alternate adopt and drop, as a session does.
		if round%2 == 0 {
			s, spare = c, s
		} else {
			spare = c
		}
	}
}

// FuzzDeltaStream feeds arbitrary bytes to the differential check: the
// first two pick the refinement options and the load limit, the rest are
// the operations.
func FuzzDeltaStream(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		data := make([]byte, 256)
		rand.New(rand.NewSource(seed)).Read(data)
		f.Add(data)
	}
	cfgs := memoConfigs()
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 || len(data) > 4096 {
			return
		}
		newMemoPair(t, 1, cfgs[int(data[0])%len(cfgs)], data[1]&1 == 1).run(data[2:])
	})
}
