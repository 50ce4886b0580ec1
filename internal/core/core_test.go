package core

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/partition"
	"repro/internal/taskgraph"
	"repro/internal/topology"
)

func allStrategies() []Strategy {
	return []Strategy{
		TopoLB{},
		TopoLB{Order: OrderFirst},
		TopoLB{Order: OrderThird},
		TopoCentLB{},
		Random{Seed: 1},
		Identity{},
		RefineTopoLB{Base: TopoLB{}},
		RefineTopoLB{Base: Random{Seed: 1}},
	}
}

func TestStrategiesProduceBijections(t *testing.T) {
	g := taskgraph.Mesh2D(4, 4, 100)
	to := topology.MustTorus(4, 4)
	for _, s := range allStrategies() {
		m, err := s.Map(g, to)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if err := m.Validate(g, to); err != nil {
			t.Errorf("%s: %v", s.Name(), err)
		}
	}
}

func TestStrategiesRejectSizeMismatch(t *testing.T) {
	g := taskgraph.Mesh2D(4, 4, 100)
	to := topology.MustTorus(4, 5)
	for _, s := range allStrategies() {
		if _, err := s.Map(g, to); err == nil {
			t.Errorf("%s: want error for 16 tasks on 20 processors", s.Name())
		}
	}
}

func TestTopoLBInvalidOrder(t *testing.T) {
	g := taskgraph.Ring(4, 1)
	to := topology.MustTorus(4)
	if _, err := (TopoLB{Order: 9}).Map(g, to); err == nil {
		t.Error("want error for invalid order")
	}
}

func TestRefineRequiresBase(t *testing.T) {
	g := taskgraph.Ring(4, 1)
	to := topology.MustTorus(4)
	if _, err := (RefineTopoLB{}).Map(g, to); err == nil {
		t.Error("want error for missing Base")
	}
}

func TestHopBytesIdentityOnMatchingShapes(t *testing.T) {
	// Task pattern shaped exactly like the machine: identity is the
	// isomorphism mapping and every byte travels exactly 1 hop.
	g := taskgraph.Mesh3D(4, 4, 4, 1000)
	me := topology.MustMesh(4, 4, 4)
	m, err := Identity{}.Map(g, me)
	if err != nil {
		t.Fatal(err)
	}
	if hpb := HopsPerByte(g, me, m); hpb != 1 {
		t.Errorf("identity hops/byte = %v, want exactly 1", hpb)
	}
	if hb := HopBytes(g, me, m); hb != g.TotalComm() {
		t.Errorf("HopBytes = %v, want %v", hb, g.TotalComm())
	}
}

// TestHopBytesBitIdenticalAcrossGOMAXPROCS: at 4 096 tasks with
// non-integral weights HopBytes is 64 chunks, forked at any width above
// one; the sum must carry the same bits at every width — the bits of the
// chunk partials added in index order, each edge charged the machine's
// own Distance (on the hierarchy, the composite one).
func TestHopBytesBitIdenticalAcrossGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, to := range []topology.Topology{
		topology.MustTorus(16, 16, 16),
		mustHier(t, "pod:4@37/rack:4@4:torus-16x16"),
	} {
		n := to.Nodes()
		g := taskgraph.Random(n, 4*n, 0.37, 9.91, 6)
		m, err := Random{Seed: 5}.Map(g, to)
		if err != nil {
			t.Fatal(err)
		}
		want := 0.0
		for lo := 0; lo < n; lo += hopBytesGrain {
			part := 0.0
			for v := lo; v < lo+hopBytesGrain; v++ {
				adj, w := g.Neighbors(v)
				for i, u := range adj {
					if int32(v) < u {
						part += w[i] * float64(to.Distance(m[v], m[u]))
					}
				}
			}
			want += part
		}
		for _, procs := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(procs)
			if got := HopBytes(g, to, m); got != want {
				t.Errorf("%s, GOMAXPROCS=%d: HopBytes = %v (%#x), want %v (%#x)",
					to.Name(), procs, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
}

func TestHopBytesZeroCommGraph(t *testing.T) {
	b := taskgraph.NewBuilder(4)
	g := b.Build("silent")
	to := topology.MustTorus(4)
	m, _ := Identity{}.Map(g, to)
	if got := HopsPerByte(g, to, m); got != 0 {
		t.Errorf("HopsPerByte = %v, want 0 for zero-communication graph", got)
	}
}

func TestRandomMatchesAnalyticExpectation(t *testing.T) {
	// Paper Figure 1: random placement's hops/byte tracks √p/2 on a 2D
	// torus. Average over seeds to tame variance.
	g := taskgraph.Mesh2D(16, 16, 100)
	to := topology.MustTorus(16, 16)
	want := ExpectedRandomHopsPerByte(to) // = 8
	if want != 8 {
		t.Fatalf("analytic expectation = %v, want 8", want)
	}
	sum := 0.0
	const trials = 20
	for seed := int64(0); seed < trials; seed++ {
		m, err := Random{Seed: seed}.Map(g, to)
		if err != nil {
			t.Fatal(err)
		}
		sum += HopsPerByte(g, to, m)
	}
	got := sum / trials
	if math.Abs(got-want) > 0.5 {
		t.Errorf("random hops/byte = %v, analytic %v", got, want)
	}
}

func TestTopoLBNearOptimalMeshOnTorus(t *testing.T) {
	// Paper §5.2.1: TopoLB maps a 2D-mesh pattern onto a 2D-torus
	// near-optimally (hops/byte close to the ideal 1).
	for _, side := range []int{4, 8, 16} {
		g := taskgraph.Mesh2D(side, side, 100)
		to := topology.MustTorus(side, side)
		m, err := TopoLB{}.Map(g, to)
		if err != nil {
			t.Fatal(err)
		}
		hpb := HopsPerByte(g, to, m)
		rand := ExpectedRandomHopsPerByte(to)
		if hpb >= rand {
			t.Errorf("side %d: TopoLB hops/byte %v not below random %v", side, hpb, rand)
		}
		if hpb > 2.0 {
			t.Errorf("side %d: TopoLB hops/byte %v, want near 1", side, hpb)
		}
	}
}

func TestTopoCentLBBeatsRandom(t *testing.T) {
	g := taskgraph.Mesh2D(8, 8, 100)
	to := topology.MustTorus(8, 8)
	mc, err := TopoCentLB{}.Map(g, to)
	if err != nil {
		t.Fatal(err)
	}
	mr, err := Random{Seed: 7}.Map(g, to)
	if err != nil {
		t.Fatal(err)
	}
	hc, hr := HopsPerByte(g, to, mc), HopsPerByte(g, to, mr)
	if hc >= hr/2 {
		t.Errorf("TopoCentLB %v not well below random %v", hc, hr)
	}
}

func TestMeshSubgraphOfTorusReachesOptimal(t *testing.T) {
	// Paper Figure 4: an (8,8) 2D mesh is a subgraph of a (4,4,4) 3D
	// torus, so hops/byte of 1.0 is feasible; TopoLB(+Refine) should get
	// close.
	g := taskgraph.Mesh2D(8, 8, 100)
	to := topology.MustTorus(4, 4, 4)
	m, err := RefineTopoLB{Base: TopoLB{}}.Map(g, to)
	if err != nil {
		t.Fatal(err)
	}
	hpb := HopsPerByte(g, to, m)
	if hpb > 1.5 {
		t.Errorf("hops/byte = %v, want close to the optimal 1.0", hpb)
	}
}

func TestRefineNeverIncreasesHopBytes(t *testing.T) {
	g := taskgraph.Random(30, 90, 1, 10, 4)
	to := topology.MustTorus(5, 6)
	m, err := Random{Seed: 3}.Map(g, to)
	if err != nil {
		t.Fatal(err)
	}
	before := HopBytes(g, to, m)
	swaps := Refine(g, to, m, 8)
	after := HopBytes(g, to, m)
	if after > before+1e-9 {
		t.Errorf("refine increased hop-bytes: %v -> %v", before, after)
	}
	if swaps > 0 && after >= before {
		t.Errorf("swaps performed but no improvement: %v -> %v", before, after)
	}
	if err := m.Validate(g, to); err != nil {
		t.Errorf("refined mapping invalid: %v", err)
	}
}

func TestRefineImprovesRandomSubstantially(t *testing.T) {
	g := taskgraph.Mesh2D(8, 8, 100)
	to := topology.MustTorus(8, 8)
	m, err := Random{Seed: 5}.Map(g, to)
	if err != nil {
		t.Fatal(err)
	}
	before := HopBytes(g, to, m)
	Refine(g, to, m, 16)
	after := HopBytes(g, to, m)
	if after > 0.7*before {
		t.Errorf("refine only got %v -> %v; want >30%% reduction on a mesh pattern", before, after)
	}
}

func TestTopoLBOrdersAllReasonable(t *testing.T) {
	g := taskgraph.Mesh2D(6, 6, 100)
	to := topology.MustTorus(6, 6)
	rand := ExpectedRandomHopsPerByte(to)
	for _, order := range []Order{OrderFirst, OrderSecond, OrderThird} {
		m, err := TopoLB{Order: order}.Map(g, to)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Validate(g, to); err != nil {
			t.Fatalf("order %d: %v", order, err)
		}
		hpb := HopsPerByte(g, to, m)
		if hpb >= rand {
			t.Errorf("order %d: hops/byte %v >= random %v", order, hpb, rand)
		}
	}
}

func TestTopoLBDeterministic(t *testing.T) {
	g := taskgraph.Random(25, 80, 1, 10, 6)
	to := topology.MustTorus(5, 5)
	m1, err := TopoLB{}.Map(g, to)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := TopoLB{}.Map(g, to)
	if err != nil {
		t.Fatal(err)
	}
	for i := range m1 {
		if m1[i] != m2[i] {
			t.Fatal("TopoLB not deterministic")
		}
	}
}

func TestSingleTask(t *testing.T) {
	b := taskgraph.NewBuilder(1)
	g := b.Build("solo")
	to := topology.MustMesh(1)
	for _, s := range []Strategy{TopoLB{}, TopoLB{Order: OrderThird}, TopoCentLB{}, Random{}} {
		m, err := s.Map(g, to)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if len(m) != 1 || m[0] != 0 {
			t.Errorf("%s: m = %v", s.Name(), m)
		}
	}
}

func TestTwoPhasePipelineLeanMD(t *testing.T) {
	// End-to-end integration: LeanMD graph -> multilevel partition ->
	// quotient -> TopoLB onto a 2D torus, checking the paper's headline
	// claim of a large hop-byte reduction versus random placement.
	const p = 64
	g := taskgraph.LeanMD(p, 1000, 1)
	r, err := partition.Multilevel{Seed: 1}.Partition(g, p)
	if err != nil {
		t.Fatal(err)
	}
	q, err := partition.Quotient(g, r)
	if err != nil {
		t.Fatal(err)
	}
	to := topology.MustTorus(8, 8)
	mt, err := TopoLB{}.Map(q, to)
	if err != nil {
		t.Fatal(err)
	}
	// Average random over a few seeds.
	randHPB := 0.0
	for seed := int64(0); seed < 5; seed++ {
		mr, err := Random{Seed: seed}.Map(q, to)
		if err != nil {
			t.Fatal(err)
		}
		randHPB += HopsPerByte(q, to, mr)
	}
	randHPB /= 5
	topoHPB := HopsPerByte(q, to, mt)
	if topoHPB >= 0.8*randHPB {
		t.Errorf("TopoLB %v vs random %v: want >20%% reduction (paper: ~34%%)", topoHPB, randHPB)
	}
}
