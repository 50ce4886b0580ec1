package core

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
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
