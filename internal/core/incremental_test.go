package core

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/taskgraph"
	"repro/internal/topology"
)

// intWeightGraph builds a connected random graph whose edge weights are
// integers (so every hop-bytes partial sum is exactly representable and
// summation order cannot matter — the lbdb byte-count setting).
func intWeightGraph(n, extra int, rng *rand.Rand) *taskgraph.Graph {
	b := taskgraph.NewBuilder(n)
	for v := 0; v < n; v++ {
		b.AddEdge(v, (v+1)%n, float64(1+rng.Intn(1000)))
		b.SetVertexWeight(v, float64(rng.Intn(10)))
	}
	for e := 0; e < extra; e++ {
		a, c := rng.Intn(n), rng.Intn(n)
		if a != c {
			b.AddEdge(a, c, float64(1+rng.Intn(1000)))
		}
	}
	return b.Build(fmt.Sprintf("intweights(n=%d)", n))
}

func randomPlacement(n, procs int, rng *rand.Rand) Mapping {
	m := make(Mapping, n)
	for v := range m {
		m[v] = rng.Intn(procs)
	}
	return m
}

// requireExact fails unless the state's O(1) hop-bytes total is
// bit-identical to a full HopBytes recompute of the materialized graph.
func requireExact(t testing.TB, s *IncrementalState, to topology.Topology, ctx string) {
	t.Helper()
	got := s.HopBytes()
	want := HopBytes(s.Graph("check"), to, s.Mapping())
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s: incremental hop-bytes %v (bits %x) != full recompute %v (bits %x)",
			ctx, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// TestIncrementalMatchesFullHopBytes drives a state through every
// mutation kind with integer weights and checks the O(1) total against a
// full recompute after each step.
func TestIncrementalMatchesFullHopBytes(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		to := topology.MustTorus(4, 4)
		n := 24
		g := intWeightGraph(n, 30, rng)
		s, err := NewIncrementalState(g, to, randomPlacement(n, to.Nodes(), rng))
		if err != nil {
			t.Fatal(err)
		}
		requireExact(t, s, to, "initial")

		live := make([]int, n)
		for v := range live {
			live[v] = v
		}
		for step := 0; step < 300; step++ {
			ctx := fmt.Sprintf("seed %d step %d", seed, step)
			switch k := rng.Intn(10); {
			case k < 3: // comm update or insert
				a, b := live[rng.Intn(len(live))], live[rng.Intn(len(live))]
				if a == b {
					continue
				}
				if err := s.SetComm(a, b, float64(rng.Intn(2000))); err != nil {
					t.Fatalf("%s: SetComm: %v", ctx, err)
				}
			case k < 5: // move
				v := live[rng.Intn(len(live))]
				if err := s.MoveTask(v, rng.Intn(to.Nodes())); err != nil {
					t.Fatalf("%s: MoveTask: %v", ctx, err)
				}
			case k < 7: // load
				v := live[rng.Intn(len(live))]
				if err := s.SetLoad(v, float64(rng.Intn(50))); err != nil {
					t.Fatalf("%s: SetLoad: %v", ctx, err)
				}
			case k < 8 && len(live) > 4: // remove
				i := rng.Intn(len(live))
				if err := s.RemoveTask(live[i]); err != nil {
					t.Fatalf("%s: RemoveTask: %v", ctx, err)
				}
				live = append(live[:i], live[i+1:]...)
			default: // add, then wire it up
				id, err := s.AddTask(float64(rng.Intn(10)), rng.Intn(to.Nodes()))
				if err != nil {
					t.Fatalf("%s: AddTask: %v", ctx, err)
				}
				if err := s.SetComm(id, live[rng.Intn(len(live))], float64(1+rng.Intn(1000))); err != nil {
					t.Fatalf("%s: SetComm(new): %v", ctx, err)
				}
				live = append(live, id)
			}
			requireExact(t, s, to, ctx)
		}
	}
}

// requireRowsMatchGraph fails unless the state's rows are the graph the
// stream built (want, keyed by (lo, hi) task pair) and hold its leaves
// right: each task's row is its row in Graph(), both rows of an edge name
// one leaf holding w·Distance of its endpoints, no two edges share a
// leaf, every freed leaf is zero and owned by no edge, and the total is
// HopBytes of Graph().
func requireRowsMatchGraph(t *testing.T, s *IncrementalState, to topology.Topology, want map[[2]int]float64, ctx string) {
	t.Helper()
	g := s.Graph("rows")
	if g.NumEdges() != len(want) || s.NumEdges() != len(want) {
		t.Fatalf("%s: Graph() has %d edges, the state counts %d, the stream built %d", ctx, g.NumEdges(), s.NumEdges(), len(want))
	}
	owner := make(map[int32][2]int)
	for v := range s.adj {
		r := &s.adj[v]
		adj, w := g.Neighbors(v)
		if !slices.Equal(r.nbr, adj) || !slices.Equal(r.w, w) || len(r.leaf) != len(r.nbr) {
			t.Fatalf("%s: task %d row %v %v %v, Graph() row %v %v", ctx, v, r.nbr, r.w, r.leaf, adj, w)
		}
		for i, u := range r.nbr {
			key := [2]int{min(v, int(u)), max(v, int(u))}
			if bytes, ok := want[key]; !ok || bytes != r.w[i] {
				t.Fatalf("%s: edge %v weighs %v in task %d's row, the stream set %v", ctx, key, r.w[i], v, bytes)
			}
			e := r.leaf[i]
			if o, ok := owner[e]; ok && o != key {
				t.Fatalf("%s: leaf %d held by edges %v and %v", ctx, e, o, key)
			}
			owner[e] = key
			if got, c := s.tree.leaf(int(e)), r.w[i]*float64(to.Distance(s.proc[v], s.proc[u])); got != c {
				t.Fatalf("%s: leaf %d of edge %v holds %v, want %v", ctx, e, key, got, c)
			}
		}
	}
	if len(owner) != len(want) {
		t.Fatalf("%s: %d edges own %d leaves", ctx, len(want), len(owner))
	}
	for _, e := range s.freeLeaves {
		if _, ok := owner[e]; ok || s.tree.leaf(int(e)) != 0 {
			t.Fatalf("%s: freed leaf %d is owned (%v) or non-zero (%v)", ctx, e, ok, s.tree.leaf(int(e)))
		}
	}
	requireExact(t, s, to, ctx)
}

// TestIncrementalRowsMatchGraph runs a delta stream that removes and
// re-adds edges and tasks, so freed leaves are reused, and after every
// step holds the rows to the graph the stream built and the kernel, fed
// the materialized rows, to recomputation.
func TestIncrementalRowsMatchGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	to := topology.MustTorus(4, 4)
	n := 24
	g := intWeightGraph(n, 30, rng)
	s, err := NewIncrementalState(g, to, randomPlacement(n, to.Nodes(), rng))
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[[2]int]float64)
	for v := 0; v < n; v++ {
		adj, w := g.Neighbors(v)
		for i, u := range adj {
			want[[2]int{min(v, int(u)), max(v, int(u))}] = w[i]
		}
	}
	live := make([]int, n)
	for v := range live {
		live[v] = v
	}
	reused := 0
	setComm := func(a, b int, bytes float64) {
		key := [2]int{min(a, b), max(a, b)}
		_, had := want[key]
		free, leaves := len(s.freeLeaves), s.liveEdges+len(s.freeLeaves)
		last := int32(-1)
		if free > 0 {
			last = s.freeLeaves[free-1]
		}
		if err := s.SetComm(a, b, bytes); err != nil {
			t.Fatal(err)
		}
		if delete(want, key); bytes > 0 {
			want[key] = bytes
		}
		if !had && bytes > 0 && free > 0 {
			// An insert with a leaf free takes the one freed last instead
			// of a new one.
			r := &s.adj[a]
			i, _ := r.search(int32(b))
			if s.liveEdges+len(s.freeLeaves) != leaves || r.leaf[i] != last {
				t.Fatalf("insert of %v took leaf %d (leaves %d -> %d), want %d, freed last", key, r.leaf[i], leaves, s.liveEdges+len(s.freeLeaves), last)
			}
			reused++
		}
	}
	for step := 0; step < 400; step++ {
		ctx := fmt.Sprintf("step %d", step)
		switch k := rng.Intn(10); {
		case k < 3: // insert or update an edge
			a, b := live[rng.Intn(len(live))], live[rng.Intn(len(live))]
			if a == b {
				continue
			}
			setComm(a, b, float64(1+rng.Intn(1000)))
		case k < 6: // remove an edge
			a := live[rng.Intn(len(live))]
			if nbr := s.adj[a].nbr; len(nbr) > 0 {
				setComm(a, int(nbr[rng.Intn(len(nbr))]), 0)
			}
		case k < 7 && len(live) > 6: // remove a task
			i := rng.Intn(len(live))
			v := live[i]
			if err := s.RemoveTask(v); err != nil {
				t.Fatal(err)
			}
			for key := range want {
				if key[0] == v || key[1] == v {
					delete(want, key)
				}
			}
			live = append(live[:i], live[i+1:]...)
		case k < 8: // add a task and wire it up
			id, err := s.AddTask(1, rng.Intn(to.Nodes()))
			if err != nil {
				t.Fatal(err)
			}
			for j := 0; j < 2; j++ {
				setComm(id, live[rng.Intn(len(live))], float64(1+rng.Intn(1000)))
			}
			live = append(live, id)
		default:
			if err := s.MoveTask(live[rng.Intn(len(live))], rng.Intn(to.Nodes())); err != nil {
				t.Fatal(err)
			}
		}
		requireRowsMatchGraph(t, s, to, want, ctx)
		a, m, mg := live[rng.Intn(len(live))], s.Mapping(), s.Graph("kernel")
		for _, b := range s.adj[a].nbr {
			requireSwapDeltaExact(t, mg, to, &s.d, m, a, int(b), 0)
			requireSwapDeltaExact(t, mg, to, &s.d, m, a, -1, m[b])
		}
	}
	if reused < 20 {
		t.Fatalf("only %d inserts reused a freed leaf", reused)
	}
}

// TestIncrementalRebuildBitIdentical: with arbitrary float weights (where
// summation order does matter), a state that has seen any stream of
// weight/load/move updates must still produce exactly the total a fresh
// state built from its materialized graph produces — the fixed-shape
// summation-tree guarantee.
func TestIncrementalRebuildBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	to := topology.MustTorus(3, 5)
	n := 30
	g := taskgraph.Random(n, 90, 0.1, 9.7, 11)
	s, err := NewIncrementalState(g, to, randomPlacement(n, to.Nodes(), rng))
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 500; step++ {
		v := rng.Intn(n)
		switch rng.Intn(3) {
		case 0:
			adj, _ := g.Neighbors(v)
			if len(adj) == 0 {
				continue
			}
			u := int(adj[rng.Intn(len(adj))])
			if err := s.SetComm(v, u, rng.Float64()*1e5); err != nil {
				t.Fatal(err)
			}
		case 1:
			if err := s.MoveTask(v, rng.Intn(to.Nodes())); err != nil {
				t.Fatal(err)
			}
		default:
			if err := s.SetLoad(v, rng.Float64()); err != nil {
				t.Fatal(err)
			}
		}
	}
	fresh, err := NewIncrementalState(s.Graph("rebuild"), to, s.Mapping())
	if err != nil {
		t.Fatal(err)
	}
	got, want := s.HopBytes(), fresh.HopBytes()
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("incremental %v (bits %x) != rebuilt %v (bits %x)",
			got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// TestRefineIncrementalBudget: for every budget B, refinement never
// leaves more than B tasks off the anchor placement, and the maintained
// total stays exact.
func TestRefineIncrementalBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	to := topology.MustTorus(4, 4)
	n := 64
	g := intWeightGraph(n, 120, rng)
	start := randomPlacement(n, to.Nodes(), rng)
	for _, budget := range []int{0, 1, 4, 16, -1} {
		s, err := NewIncrementalState(g, to, start)
		if err != nil {
			t.Fatal(err)
		}
		before := s.HopBytes()
		res := s.RefineIncremental(IncRefineOptions{MaxMigrations: budget})
		moved := 0
		for v := 0; v < n; v++ {
			if s.Proc(v) != start[v] {
				moved++
			}
		}
		if budget >= 0 && moved > budget {
			t.Errorf("budget %d: %d tasks moved", budget, moved)
		}
		if res.Migrations != moved {
			t.Errorf("budget %d: result reports %d migrations, placement shows %d", budget, res.Migrations, moved)
		}
		if s.HopBytes() > before {
			t.Errorf("budget %d: refinement worsened hop-bytes %v -> %v", budget, before, s.HopBytes())
		}
		if budget == 0 && moved != 0 {
			t.Errorf("budget 0 moved %d tasks", moved)
		}
		requireExact(t, s, to, fmt.Sprintf("budget %d", budget))
	}
}

// TestRefineIncrementalImproves: starting from a random placement of a
// structured graph, unbounded refinement must strictly reduce hop-bytes.
func TestRefineIncrementalImproves(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	to := topology.MustTorus(8, 8)
	g := taskgraph.Mesh2D(16, 16, 1e5)
	s, err := NewIncrementalState(g, to, randomPlacement(g.NumVertices(), to.Nodes(), rng))
	if err != nil {
		t.Fatal(err)
	}
	res := s.RefineIncremental(IncRefineOptions{MaxMigrations: -1})
	if res.HopBytesAfter >= res.HopBytesBefore {
		t.Fatalf("no improvement: %v -> %v", res.HopBytesBefore, res.HopBytesAfter)
	}
	if res.Moves+res.Swaps == 0 {
		t.Fatal("refinement accepted no steps")
	}
	requireExact(t, s, to, "after refine")
}

// TestRefineIncrementalMigrationCostMonotone: a higher migration cost
// never yields more migrations.
func TestRefineIncrementalMigrationCostMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	to := topology.MustTorus(4, 8)
	g := taskgraph.Mesh2D(8, 8, 1e3)
	start := randomPlacement(g.NumVertices(), to.Nodes(), rng)
	prev := -1
	for _, cost := range []float64{0, 1e3, 1e5, 1e9} {
		s, err := NewIncrementalState(g, to, start)
		if err != nil {
			t.Fatal(err)
		}
		res := s.RefineIncremental(IncRefineOptions{MaxMigrations: -1, MigrationCost: cost})
		if prev >= 0 && res.Migrations > prev {
			t.Errorf("cost %g: migrations rose %d -> %d", cost, prev, res.Migrations)
		}
		prev = res.Migrations
	}
	if prev != 0 {
		t.Errorf("prohibitive migration cost still moved %d tasks", prev)
	}
}

// TestRefineIncrementalDeterministicAcrossGOMAXPROCS: the refined
// placement and its hop-bytes must be byte-identical at GOMAXPROCS
// 1, 2, and 8.
func TestRefineIncrementalDeterministicAcrossGOMAXPROCS(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	to := topology.MustTorus(4, 4, 2)
	n := to.Nodes() * 3 // placement model: tasks outnumber processors
	g := taskgraph.Random(n, 3*n, 1, 1e4, 17)
	start := randomPlacement(n, to.Nodes(), rng)

	run := func() (Mapping, float64) {
		s, err := NewIncrementalState(g, to, start)
		if err != nil {
			t.Fatal(err)
		}
		s.RefineIncremental(IncRefineOptions{MaxMigrations: 40, MigrationCost: 10})
		return s.Mapping(), s.HopBytes()
	}
	orig := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(orig)
	runtime.GOMAXPROCS(1)
	refM, refHB := run()
	for _, procs := range []int{2, 8} {
		runtime.GOMAXPROCS(procs)
		m, hb := run()
		if math.Float64bits(hb) != math.Float64bits(refHB) {
			t.Errorf("GOMAXPROCS=%d: hop-bytes %v != %v", procs, hb, refHB)
		}
		for v := range m {
			if m[v] != refM[v] {
				t.Errorf("GOMAXPROCS=%d: task %d on %d, want %d", procs, v, m[v], refM[v])
				break
			}
		}
	}
}

// TestIncrementalClone: mutations to a clone never leak into the parent.
func TestIncrementalClone(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	to := topology.MustTorus(4, 4)
	g := intWeightGraph(20, 30, rng)
	s, err := NewIncrementalState(g, to, randomPlacement(20, to.Nodes(), rng))
	if err != nil {
		t.Fatal(err)
	}
	before := s.HopBytes()
	c := s.Clone()
	c.RefineIncremental(IncRefineOptions{MaxMigrations: -1})
	if err := c.SetComm(0, 5, 12345); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddTask(1, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.RemoveTask(3); err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(s.HopBytes()) != math.Float64bits(before) {
		t.Fatalf("clone mutations changed parent: %v -> %v", before, s.HopBytes())
	}
	requireExact(t, s, to, "parent after clone mutations")
	requireExact(t, c, to, "mutated clone")
}

// TestIncrementalErrors: every mutation rejects invalid arguments.
func TestIncrementalErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	to := topology.MustTorus(2, 2)
	g := intWeightGraph(6, 4, rng)
	s, err := NewIncrementalState(g, to, randomPlacement(6, 4, rng))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RemoveTask(2); err != nil {
		t.Fatal(err)
	}
	cases := map[string]error{
		"load oob":      s.SetLoad(99, 1),
		"load dead":     s.SetLoad(2, 1),
		"load negative": s.SetLoad(0, -1),
		"comm self":     s.SetComm(1, 1, 5),
		"comm dead":     s.SetComm(1, 2, 5),
		"comm negative": s.SetComm(0, 1, -5),
		"move oob proc": s.MoveTask(0, 99),
		"move dead":     s.MoveTask(2, 0),
		"remove dead":   s.RemoveTask(2),
		"bad mapping": func() error {
			_, err := NewIncrementalState(g, to, make(Mapping, 2))
			return err
		}(),
		"bad proc in mapping": func() error {
			m := randomPlacement(6, 4, rng)
			m[3] = 77
			_, err := NewIncrementalState(g, to, m)
			return err
		}(),
		"add bad proc": func() error {
			_, err := s.AddTask(1, -1)
			return err
		}(),
		"add bad load": func() error {
			_, err := s.AddTask(-1, 0)
			return err
		}(),
	}
	for name, err := range cases {
		if err == nil {
			t.Errorf("%s: no error", name)
		}
	}
}

// TestIncrementalAnchor: SetAnchor resets the migration reference.
func TestIncrementalAnchor(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	to := topology.MustTorus(2, 2)
	g := intWeightGraph(8, 8, rng)
	s, err := NewIncrementalState(g, to, randomPlacement(8, 4, rng))
	if err != nil {
		t.Fatal(err)
	}
	if s.Migrations() != 0 {
		t.Fatalf("fresh state reports %d migrations", s.Migrations())
	}
	if err := s.MoveTask(0, (s.Proc(0)+1)%4); err != nil {
		t.Fatal(err)
	}
	if s.Migrations() != 1 {
		t.Fatalf("after one move: %d migrations", s.Migrations())
	}
	s.SetAnchor()
	if s.Migrations() != 0 {
		t.Fatalf("after SetAnchor: %d migrations", s.Migrations())
	}
}
