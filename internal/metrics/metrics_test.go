package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/taskgraph"
	"repro/internal/topology"
)

func identity(n int) []int {
	m := make([]int, n)
	for i := range m {
		m[i] = i
	}
	return m
}

func TestEvaluateValidation(t *testing.T) {
	g := taskgraph.Ring(4, 1)
	to := topology.MustTorus(4)
	if _, err := Evaluate(g, to, []int{0, 1}); err == nil {
		t.Error("short placement: want error")
	}
	if _, err := Evaluate(g, to, []int{0, 1, 2, 9}); err == nil {
		t.Error("out-of-range processor: want error")
	}
}

func TestEvaluateIdentityOnMatchingShape(t *testing.T) {
	g := taskgraph.Mesh2D(4, 4, 100)
	to := topology.MustMesh(4, 4)
	r, err := Evaluate(g, to, identity(16))
	if err != nil {
		t.Fatal(err)
	}
	if r.HopsPerByte != 1 || r.MaxDilation != 1 || r.MeanDilation != 1 {
		t.Errorf("identity metrics: %+v", r)
	}
	if r.Cardinality != g.NumEdges() {
		t.Errorf("Cardinality = %d, want all %d edges", r.Cardinality, g.NumEdges())
	}
	// Every used link carries exactly one message's bytes each way.
	if r.MaxLinkBytes != 100 {
		t.Errorf("MaxLinkBytes = %v, want 100", r.MaxLinkBytes)
	}
	if r.Imbalance != 1 {
		t.Errorf("Imbalance = %v, want 1 (bijection, unit weights)", r.Imbalance)
	}
}

// TestEvaluateMatchesCoreHopBytes: a response with metrics carries the
// hop-bytes twice, at the top level (core.HopBytes, and that over
// TotalComm) and in the report. With fractional weights over more than
// one 64-task chunk, any other summation order differs in the last bits.
func TestEvaluateMatchesCoreHopBytes(t *testing.T) {
	to := topology.MustTorus(16, 16)
	for seed := int64(1); seed <= 20; seed++ {
		g := taskgraph.Random(256, 1024, 0.37, 9.91, seed)
		m, err := (core.Random{Seed: seed}).Map(g, to)
		if err != nil {
			t.Fatal(err)
		}
		r, err := Evaluate(g, to, m)
		if err != nil {
			t.Fatal(err)
		}
		hb := core.HopBytes(g, to, m)
		if r.HopBytes != hb || r.HopsPerByte != hb/g.TotalComm() {
			t.Errorf("seed %d: report HopBytes %v, HopsPerByte %v; core %v, %v",
				seed, r.HopBytes, r.HopsPerByte, hb, hb/g.TotalComm())
		}
	}
}

func TestRoutedLoadsConserveHopBytes(t *testing.T) {
	// Σ link loads = Σ over directed messages of bytes×hops = 2×HopBytes,
	// with or without split routing: both halves take minimal paths.
	g := taskgraph.Mesh2D(4, 4, 250)
	to := topology.MustTorus(4, 4)
	m, err := (core.Random{Seed: 2}).Map(g, to)
	if err != nil {
		t.Fatal(err)
	}
	want := 2 * core.HopBytes(g, to, m)
	for _, split := range []bool{false, true} {
		sum := 0.0
		for _, b := range RoutedLoads(g, to, m, split) {
			sum += b
		}
		if math.Abs(sum-want) > 1e-9 {
			t.Errorf("split %v: sum of link loads %v, want %v", split, sum, want)
		}
	}
}

func TestNonBijectivePlacement(t *testing.T) {
	// All tasks on one processor: zero hop-bytes, full imbalance.
	g := taskgraph.Ring(6, 10)
	to := topology.MustTorus(3, 2)
	m := make([]int, 6)
	r, err := Evaluate(g, to, m)
	if err != nil {
		t.Fatal(err)
	}
	if r.HopBytes != 0 || r.MaxLinkBytes != 0 {
		t.Errorf("co-located tasks should cost nothing: %+v", r)
	}
	if r.Imbalance != 6 {
		t.Errorf("Imbalance = %v, want 6", r.Imbalance)
	}
}

func TestLinkCVDetectsHotspots(t *testing.T) {
	g := taskgraph.Mesh2D(8, 8, 100)
	to := topology.MustTorus(8, 8)
	mOpt, err := (core.TopoLB{}).Map(g, to)
	if err != nil {
		t.Fatal(err)
	}
	mRand, err := (core.Random{Seed: 1}).Map(g, to)
	if err != nil {
		t.Fatal(err)
	}
	rOpt, err := Evaluate(g, to, mOpt)
	if err != nil {
		t.Fatal(err)
	}
	rRand, err := Evaluate(g, to, mRand)
	if err != nil {
		t.Fatal(err)
	}
	if rOpt.LinkCV >= rRand.LinkCV {
		t.Errorf("optimal mapping CV %v not below random %v", rOpt.LinkCV, rRand.LinkCV)
	}
	if rOpt.MaxLinkBytes >= rRand.MaxLinkBytes {
		t.Errorf("optimal max link %v not below random %v", rOpt.MaxLinkBytes, rRand.MaxLinkBytes)
	}
}

func TestMetricsWithoutRouterSkipLinkLoads(t *testing.T) {
	g := taskgraph.Ring(8, 10)
	ft := topology.MustFatTree(2, 3) // no Router
	m := identity(8)
	r, err := Evaluate(g, ft, m)
	if err != nil {
		t.Fatal(err)
	}
	if r.MaxLinkBytes != 0 || r.MeanLinkBytes != 0 {
		t.Errorf("expected zero link loads without a Router: %+v", r)
	}
	if r.HopBytes <= 0 {
		t.Error("hop-bytes should still be computed")
	}
}

// Property: hop-bytes lower bound — MaxLinkBytes ≥ MeanLinkBytes, with
// and without split routing (Evaluate's own link loads are unsplit), and
// HopsPerByte ≥ MeanDilation-weighted sanity across random placements.
func TestPropertyLinkLoadBounds(t *testing.T) {
	g := taskgraph.Mesh2D(4, 4, 100)
	to := topology.MustTorus(4, 4)
	f := func(seed int64, split bool) bool {
		m, err := (core.Random{Seed: seed}).Map(g, to)
		if err != nil {
			return false
		}
		r, err := Evaluate(g, to, m)
		if err != nil {
			return false
		}
		loads := RoutedLoads(g, to, m, split)
		maxLoad, sum := 0.0, 0.0
		for _, b := range loads {
			sum += b
			maxLoad = max(maxLoad, b)
		}
		return r.MaxLinkBytes >= r.MeanLinkBytes && maxLoad >= sum/float64(len(loads)) &&
			(split || maxLoad == r.MaxLinkBytes) &&
			r.MaxDilation >= 1 && float64(r.MaxDilation) >= r.MeanDilation
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
