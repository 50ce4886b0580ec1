package emulator

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/taskgraph"
	"repro/internal/topology"
)

func identityMapping(n int) []int {
	m := make([]int, n)
	for i := range m {
		m[i] = i
	}
	return m
}

func TestValidation(t *testing.T) {
	g := taskgraph.Mesh2D(2, 2, 100)
	to := topology.MustMesh(2, 2)
	m := DefaultMachine(to)
	if _, err := (&Machine{}).RunIterative(g, identityMapping(4), 1, 1e-6); err == nil {
		t.Error("nil topo: want error")
	}
	if _, err := (&Machine{Topo: to}).RunIterative(g, identityMapping(4), 1, 1e-6); err == nil {
		t.Error("zero bandwidth: want error")
	}
	if _, err := m.RunIterative(g, identityMapping(4), 0, 1e-6); err == nil {
		t.Error("zero iterations: want error")
	}
	if _, err := m.RunIterative(g, []int{0, 1}, 1, 1e-6); err == nil {
		t.Error("short mapping: want error")
	}
	if _, err := m.RunIterative(g, []int{0, 1, 2, 9}, 1, 1e-6); err == nil {
		t.Error("out-of-range processor: want error")
	}
	if _, err := m.RunIterative(g, identityMapping(4), 1, -1); err == nil {
		t.Error("negative compute: want error")
	}
}

func TestIdentityMappingLinkLoads(t *testing.T) {
	// 8x8x8 Jacobi on an (8,8,8) mesh with the isomorphism mapping: every
	// message travels exactly 1 hop and every used link carries exactly
	// one message's bytes.
	const S = 1e5
	g := taskgraph.Mesh3D(8, 8, 8, S)
	to := topology.MustMesh(8, 8, 8)
	m := DefaultMachine(to)
	res, err := m.RunIterative(g, identityMapping(512), 200, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxHops != 1 {
		t.Errorf("MaxHops = %d, want 1", res.MaxHops)
	}
	if res.AvgHops != 1 {
		t.Errorf("AvgHops = %v, want 1", res.AvgHops)
	}
	if res.MaxLinkBytes != S {
		t.Errorf("MaxLinkBytes = %v, want %v", res.MaxLinkBytes, S)
	}
	if math.Abs(res.TotalTime-200*res.IterationTime) > 1e-9 {
		t.Errorf("TotalTime inconsistent")
	}
}

func TestRandomMappingCongestsMore(t *testing.T) {
	// Table 1's mechanism: random mapping loads links ~avgHops× more.
	const S = 1e5
	g := taskgraph.Mesh3D(8, 8, 8, S)
	to := topology.MustMesh(8, 8, 8)
	m := DefaultMachine(to)
	opt, err := m.RunIterative(g, identityMapping(512), 200, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	rm, err := core.Random{Seed: 1}.Map(g, to)
	if err != nil {
		t.Fatal(err)
	}
	rnd, err := m.RunIterative(g, rm, 200, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if rnd.TotalTime <= opt.TotalTime {
		t.Errorf("random %v <= optimal %v", rnd.TotalTime, opt.TotalTime)
	}
	if rnd.MaxLinkBytes <= 3*opt.MaxLinkBytes {
		t.Errorf("random MaxLinkBytes %v not well above optimal %v", rnd.MaxLinkBytes, opt.MaxLinkBytes)
	}
	if rnd.AvgHops < 5 {
		t.Errorf("random AvgHops = %v, want near mesh mean (7.875)", rnd.AvgHops)
	}
}

func TestGapGrowsWithMessageSize(t *testing.T) {
	// Table 1: the random/optimal ratio grows as message size grows
	// (bandwidth term dominates fixed overheads).
	to := topology.MustMesh(8, 8, 8)
	m := DefaultMachine(to)
	ratio := func(S float64) float64 {
		g := taskgraph.Mesh3D(8, 8, 8, S)
		opt, err := m.RunIterative(g, identityMapping(512), 200, 1e-6)
		if err != nil {
			t.Fatal(err)
		}
		rm, _ := core.Random{Seed: 1}.Map(g, to)
		rnd, err := m.RunIterative(g, rm, 200, 1e-6)
		if err != nil {
			t.Fatal(err)
		}
		return rnd.TotalTime / opt.TotalTime
	}
	small, large := ratio(1e3), ratio(1e6)
	if large <= small {
		t.Errorf("ratio at 1MB (%v) not above ratio at 1KB (%v)", large, small)
	}
}

func TestTorusBeatsMeshForRandom(t *testing.T) {
	// Figures 10–11: wraparound links lower link loads, and the effect is
	// strongest for random placement.
	const S = 1e5
	g := taskgraph.Mesh2D(16, 16, S)
	mesh := topology.MustMesh(8, 8, 4)
	torus := topology.MustTorus(8, 8, 4)
	rmMesh, _ := core.Random{Seed: 2}.Map(g, mesh)
	mM := DefaultMachine(mesh)
	mT := DefaultMachine(torus)
	resMesh, err := mM.RunIterative(g, rmMesh, 100, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	resTorus, err := mT.RunIterative(g, rmMesh, 100, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if resTorus.TotalTime >= resMesh.TotalTime {
		t.Errorf("torus time %v >= mesh time %v for the same random mapping", resTorus.TotalTime, resMesh.TotalTime)
	}
}

func TestMultipleCharesPerProcessor(t *testing.T) {
	// 4 chares on 1 processor of a 2-node mesh: compute serializes; the
	// intra-processor messages cost no link bytes.
	g := taskgraph.Mesh2D(2, 2, 1000)
	to := topology.MustMesh(2)
	m := DefaultMachine(to)
	res, err := m.RunIterative(g, []int{0, 0, 0, 0}, 10, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.ComputePhase-4e-3) > 1e-12 {
		t.Errorf("ComputePhase = %v, want 4ms", res.ComputePhase)
	}
	if res.MaxLinkBytes != 0 {
		t.Errorf("MaxLinkBytes = %v, want 0 (all intra-processor)", res.MaxLinkBytes)
	}
	if res.MaxHops != 0 {
		t.Errorf("MaxHops = %d, want 0", res.MaxHops)
	}
}

func TestAvgHopsMatchesHopsPerByte(t *testing.T) {
	// The emulator's byte-weighted AvgHops must agree with the core
	// hop-bytes metric for bijective mappings.
	g := taskgraph.Mesh2D(4, 4, 1234)
	to := topology.MustTorus(4, 4)
	mp, err := core.Random{Seed: 9}.Map(g, to)
	if err != nil {
		t.Fatal(err)
	}
	m := DefaultMachine(to)
	res, err := m.RunIterative(g, mp, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := core.HopsPerByte(g, to, mp)
	if math.Abs(res.AvgHops-want) > 1e-9 {
		t.Errorf("AvgHops = %v, HopsPerByte = %v", res.AvgHops, want)
	}
}

func TestSplitRoutingSpreadsLoad(t *testing.T) {
	// A random mapping of a 2D pattern on a torus has multi-hop messages;
	// splitting them over two minimal paths must not change total
	// hop-bytes but must reduce (or at worst preserve) the busiest link.
	g := taskgraph.Mesh2D(8, 8, 1e5)
	to := topology.MustTorus(4, 4, 4)
	mp, err := core.Random{Seed: 5}.Map(g, to)
	if err != nil {
		t.Fatal(err)
	}
	plain := DefaultMachine(to)
	split := DefaultMachine(to)
	split.SplitRouting = true
	rp, err := plain.RunIterative(g, mp, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := split.RunIterative(g, mp, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rs.MaxLinkBytes > rp.MaxLinkBytes {
		t.Errorf("split routing raised max link load: %v -> %v", rp.MaxLinkBytes, rs.MaxLinkBytes)
	}
	if rs.MaxLinkBytes >= 0.95*rp.MaxLinkBytes {
		t.Errorf("split routing did not materially spread load: %v vs %v", rs.MaxLinkBytes, rp.MaxLinkBytes)
	}
	if math.Abs(rs.AvgHops-rp.AvgHops) > 1e-9 {
		t.Errorf("split routing changed hops/byte: %v vs %v", rs.AvgHops, rp.AvgHops)
	}
	// Total bytes over all links is conserved: same hop-bytes.
	if math.Abs(rs.AvgLinkBytes-rp.AvgLinkBytes) > 1e-6 {
		t.Errorf("split routing changed total link bytes: %v vs %v", rs.AvgLinkBytes, rp.AvgLinkBytes)
	}
}

func TestSplitRoutingNoEffectOnSingleHop(t *testing.T) {
	// The isomorphism mapping has only 1-hop messages: split routing is a
	// no-op.
	g := taskgraph.Mesh3D(4, 4, 4, 1e5)
	to := topology.MustMesh(4, 4, 4)
	m := DefaultMachine(to)
	m.SplitRouting = true
	res, err := m.RunIterative(g, identityMapping(64), 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxLinkBytes != 1e5 {
		t.Errorf("MaxLinkBytes = %v, want exactly one message", res.MaxLinkBytes)
	}
}

// refRunIterative is RunIterative as it stood before it read its link
// loads from metrics.RoutedLoads: one loop routes every message itself,
// counting hops off the route. Inputs are valid; the test oracle for the
// shared link-load walk and the distance-oracle hop counts.
func refRunIterative(m *Machine, g *taskgraph.Graph, mapping []int, iterations int, computePerUnit float64) Result {
	n := g.NumVertices()
	procs := m.Topo.Nodes()
	procCompute := make([]float64, procs)
	for v := 0; v < n; v++ {
		procCompute[mapping[v]] += computePerUnit * g.VertexWeight(v)
	}
	computePhase := 0.0
	for _, c := range procCompute {
		if c > computePhase {
			computePhase = c
		}
	}
	links := topology.EnumerateLinks(m.Topo)
	linkBytes := make([]float64, links.Len())
	procMsgs := make([]int, procs)
	maxHops := 0
	hopBytes, totalBytes := 0.0, 0.0
	var path, back []int
	for v := 0; v < n; v++ {
		adj, w := g.Neighbors(v)
		src := mapping[v]
		for i, u := range adj {
			dst := mapping[u]
			bytes := w[i]
			procMsgs[src]++
			totalBytes += bytes
			if src == dst {
				continue
			}
			path = m.Topo.Route(path[:0], src, dst)
			hops := len(path) - 1
			if hops > maxHops {
				maxHops = hops
			}
			hopBytes += bytes * float64(hops)
			fwd := bytes
			if m.SplitRouting && hops > 1 {
				fwd = bytes / 2
				back = m.Topo.Route(back[:0], dst, src)
				for h := 0; h+1 < len(back); h++ {
					linkBytes[links.Index(back[h+1], back[h])] += bytes / 2
				}
			}
			for h := 0; h+1 < len(path); h++ {
				linkBytes[links.Index(path[h], path[h+1])] += fwd
			}
		}
	}
	maxLink, sumLink := 0.0, 0.0
	for _, b := range linkBytes {
		sumLink += b
		if b > maxLink {
			maxLink = b
		}
	}
	maxMsgs := 0
	for _, c := range procMsgs {
		if c > maxMsgs {
			maxMsgs = c
		}
	}
	commPhase := maxLink/m.LinkBandwidth + float64(maxHops)*m.HopLatency + float64(maxMsgs)*m.MsgOverhead
	res := Result{ComputePhase: computePhase, CommPhase: commPhase, MaxLinkBytes: maxLink, MaxHops: maxHops}
	if links.Len() > 0 {
		res.AvgLinkBytes = sumLink / float64(links.Len())
	}
	if totalBytes > 0 {
		res.AvgHops = hopBytes / totalBytes
	}
	res.IterationTime = computePhase + commPhase
	res.TotalTime = float64(iterations) * res.IterationTime
	return res
}

// checkMatchesReference runs RunIterative and the reference on one case
// and fails unless all eight Result fields agree to the bit.
func checkMatchesReference(t *testing.T, name string, m *Machine, g *taskgraph.Graph, mapping []int, iterations int, computePerUnit float64) {
	t.Helper()
	got, err := m.RunIterative(g, mapping, iterations, computePerUnit)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	want := refRunIterative(m, g, mapping, iterations, computePerUnit)
	bits := func(r Result) [8]uint64 {
		return [8]uint64{math.Float64bits(r.TotalTime), math.Float64bits(r.IterationTime),
			math.Float64bits(r.ComputePhase), math.Float64bits(r.CommPhase),
			math.Float64bits(r.MaxLinkBytes), math.Float64bits(r.AvgLinkBytes),
			uint64(r.MaxHops), math.Float64bits(r.AvgHops)}
	}
	if bits(got) != bits(want) {
		t.Errorf("%s: got %+v, reference %+v", name, got, want)
	}
}

// randomCase is a machine built from kind and three extents (torus, mesh
// or hypercube), a random graph of 1–3 tasks per processor with irregular
// vertex and edge weights, and a random placement that uses every
// processor when tasks fill them. It returns nil when the shape is not a
// machine.
func randomCase(kind, a, b, c uint8, seed int64, split bool) (*Machine, *taskgraph.Graph, []int) {
	var to topology.Router
	var err error
	switch kind % 3 {
	case 0:
		to, err = topology.NewTorus(1+int(a)%6, 1+int(b)%6, 1+int(c)%4)
	case 1:
		to, err = topology.NewMesh(1+int(a)%6, 1+int(b)%6, 1+int(c)%4)
	default:
		to, err = topology.NewHypercube(int(a) % 7)
	}
	if err != nil {
		return nil, nil, nil
	}
	rng := rand.New(rand.NewSource(seed))
	p := to.Nodes()
	n := max(3, p*(1+rng.Intn(3)))
	g := taskgraph.Random(n, n+rng.Intn(3*n), 0.37+rng.Float64(), 9.91+100*rng.Float64(), seed)
	mapping := make([]int, n)
	for v, q := range rng.Perm(n) {
		mapping[v] = q % p
	}
	m := &Machine{Topo: to, LinkBandwidth: 1e8 + 1e8*rng.Float64(), HopLatency: 1e-7 * rng.Float64(),
		MsgOverhead: 1e-5 * rng.Float64(), SplitRouting: split}
	return m, g, mapping
}

// TestEmulatorMatchesReference holds RunIterative to the reference on
// cases shaped like Figs 10–11 (2D Jacobi on 3D tori and meshes, TopoLB
// and random placements, split routing on and off) and on random tori,
// meshes and hypercubes with irregular weights.
func TestEmulatorMatchesReference(t *testing.T) {
	shapes := []struct{ rx, ry, tx, ty, tz int }{
		{8, 8, 4, 4, 4}, {16, 8, 8, 4, 4}, {16, 16, 8, 8, 4}, {32, 16, 8, 8, 8}, {28, 28, 14, 14, 4},
	}
	for _, sh := range shapes {
		g := taskgraph.Mesh2D(sh.rx, sh.ry, 1e5)
		for _, to := range []topology.Router{topology.MustTorus(sh.tx, sh.ty, sh.tz), topology.MustMesh(sh.tx, sh.ty, sh.tz)} {
			for _, s := range []core.Strategy{core.TopoLB{}, core.Random{Seed: 1}} {
				mp, err := s.Map(g, to)
				if err != nil {
					t.Fatal(err)
				}
				for _, split := range []bool{false, true} {
					m := DefaultMachine(to)
					m.SplitRouting = split
					checkMatchesReference(t, fmt.Sprintf("%s/%s/split=%v", to.Name(), s.Name(), split), m, g, mp, 4000, 50e-6)
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		seed := rng.Int63()
		kind, a, b, c := uint8(rng.Intn(3)), uint8(rng.Intn(6)), uint8(rng.Intn(6)), uint8(rng.Intn(4))
		m, g, mp := randomCase(kind, a, b, c, seed, i%2 == 1)
		if m == nil {
			t.Fatalf("case %d: shape %d %d %d %d is no machine", i, kind, a, b, c)
		}
		checkMatchesReference(t, fmt.Sprintf("case %d: %s, %d tasks", i, m.Topo.Name(), g.NumVertices()), m, g, mp, 1+i, 1e-6*rng.Float64())
	}
}

// FuzzEmulatorMatchesReference: all eight Result fields bit-equal to the
// reference on random tori, meshes and hypercubes with n ≥ p tasks,
// irregular weights, and split routing on and off.
func FuzzEmulatorMatchesReference(f *testing.F) {
	f.Add(uint8(0), uint8(3), uint8(3), uint8(3), int64(1), false)
	f.Add(uint8(0), uint8(5), uint8(5), uint8(1), int64(2), true)
	f.Add(uint8(1), uint8(7), uint8(3), uint8(2), int64(3), true)
	f.Add(uint8(2), uint8(6), uint8(0), uint8(0), int64(4), true)
	f.Add(uint8(2), uint8(0), uint8(0), uint8(0), int64(5), false)
	f.Fuzz(func(t *testing.T, kind, a, b, c uint8, seed int64, split bool) {
		m, g, mp := randomCase(kind, a, b, c, seed, split)
		if m == nil {
			t.Skip("not a machine")
		}
		checkMatchesReference(t, m.Topo.Name(), m, g, mp, 1+int(c), 1e-6)
	})
}
