package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"repro/internal/partition"
	"repro/internal/taskgraph"
	"repro/internal/topology"
)

func placeAt(t *testing.T, procs int, g *taskgraph.Graph, topo topology.Topology) []int {
	t.Helper()
	prev := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)
	pl, err := MultilevelMap{}.Place(g, topo)
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

// TestMultilevelDeterminism pins Place to byte-identical output at
// GOMAXPROCS 1, 2, and 8 on both a structured and an irregular graph.
func TestMultilevelDeterminism(t *testing.T) {
	torus, err := topology.NewTorus(8, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	mesh, err := topology.NewMesh(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		g    *taskgraph.Graph
		topo topology.Topology
	}{
		{"stencil", taskgraph.Stencil9(64, 64, 1024), torus},
		{"rgg", taskgraph.RandomGeometricDeg(5000, 8, 1e4, 3), mesh},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ref := placeAt(t, 1, tc.g, tc.topo)
			for _, procs := range []int{2, 8} {
				got := placeAt(t, procs, tc.g, tc.topo)
				for i := range got {
					if got[i] != ref[i] {
						t.Fatalf("GOMAXPROCS=%d diverges from serial at task %d: %d != %d",
							procs, i, got[i], ref[i])
					}
				}
			}
		})
	}
}

// TestMultilevelPlacementBalanced checks the structural contract of the
// slot construction: every processor receives floor(n/p) or ceil(n/p)
// tasks, so the placement is surjective and task-count balanced.
func TestMultilevelPlacementBalanced(t *testing.T) {
	topo, err := topology.NewTorus(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{64, 65, 1000, 4096} {
		g := taskgraph.Random(n, 4*n, 100, 1000, 9)
		pl := placeAt(t, 1, g, topo)
		counts := make([]int, topo.Nodes())
		for task, proc := range pl {
			if proc < 0 || proc >= topo.Nodes() {
				t.Fatalf("n=%d: task %d on processor %d", n, task, proc)
			}
			counts[proc]++
		}
		lo, hi := n/topo.Nodes(), (n+topo.Nodes()-1)/topo.Nodes()
		for q, c := range counts {
			if c < lo || c > hi {
				t.Fatalf("n=%d: processor %d holds %d tasks, want in [%d,%d]", n, q, c, lo, hi)
			}
		}
	}
}

// TestMultilevelMapBijection checks the n == p strategy interface: Map
// must return a valid bijection.
func TestMultilevelMapBijection(t *testing.T) {
	topo, err := topology.NewTorus(8, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	g := taskgraph.Stencil9(16, 16, 1024)
	m, err := MultilevelMap{}.Map(g, topo)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(g, topo); err != nil {
		t.Fatal(err)
	}
}

// TestMultilevelQualityVsFlat cross-checks multilevel hop-bytes against
// the flat two-phase pipeline (partition + TopoLB on the quotient) at
// sizes where both complete, on a torus, a mesh, and a fat-tree. The
// hierarchical path trades some quality for asymptotic speed; a fixed
// factor bounds the loss.
func TestMultilevelQualityVsFlat(t *testing.T) {
	torus, err := topology.NewTorus(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	mesh, err := topology.NewMesh(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	ft, err := topology.NewFatTree(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	g := taskgraph.Stencil9(16, 16, 1024)
	for _, topo := range []topology.Topology{torus, mesh, ft} {
		p := topo.Nodes()
		pr, err := partition.Multilevel{Seed: 1}.Partition(g, p)
		if err != nil {
			t.Fatal(err)
		}
		q, err := partition.Quotient(g, pr)
		if err != nil {
			t.Fatal(err)
		}
		gm, err := TopoLB{}.Map(q, topo)
		if err != nil {
			t.Fatal(err)
		}
		flat := make([]int, g.NumVertices())
		for v, grp := range pr.Assign {
			flat[v] = gm[grp]
		}
		ml := placeAt(t, 1, g, topo)
		hbFlat := HopBytes(g, topo, flat)
		hbML := HopBytes(g, topo, ml)
		t.Logf("%s: flat %.4g, multilevel %.4g (ratio %.3f)", topo.Name(), hbFlat, hbML, hbML/hbFlat)
		if hbML > 1.5*hbFlat {
			t.Fatalf("%s: multilevel hop-bytes %g exceeds 1.5x flat %g", topo.Name(), hbML, hbFlat)
		}
	}
}

// refinerFixture builds a finest-level refiner over g on topo with a
// deterministic shuffled slot layout — adversarial enough that refinement
// has work to do.
func refinerFixture(t *testing.T, g *taskgraph.Graph, topo topology.Topology) *mlRefiner {
	t.Helper()
	return shuffledRefiner(g, topo, 7)
}

// exactCost is the true hop-bytes of the refiner's current finest-level
// layout (at the finest level the center-slot surrogate is exact).
func exactCost(g *taskgraph.Graph, topo topology.Topology, r *mlRefiner) float64 {
	m := make(Mapping, g.NumVertices())
	for v := range m {
		m[v] = int(r.procOrder[slotProc(r.start[v], r.n, r.p)])
	}
	return HopBytes(g, topo, m)
}

// TestMultilevelRefinementMonotonic checks the commit-time revalidation
// guarantee: at the finest level, every propose/commit sweep leaves exact
// hop-bytes no worse than before.
func TestMultilevelRefinementMonotonic(t *testing.T) {
	topo, err := topology.NewTorus(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	g := taskgraph.Random(512, 2048, 500, 1500, 5)
	r := refinerFixture(t, g, topo)
	cost := exactCost(g, topo, r)
	improved := false
	for pass := 0; pass < 6; pass++ {
		r.scanAll = true
		r.propose()
		moves := r.commit()
		next := exactCost(g, topo, r)
		if next > cost+1e-6 {
			t.Fatalf("pass %d increased hop-bytes: %g -> %g", pass, cost, next)
		}
		if next < cost {
			improved = true
		}
		cost = next
		if moves == 0 {
			break
		}
	}
	if !improved {
		t.Fatal("refinement never improved the adversarial layout")
	}
}

// TestMultilevelProposeZeroAlloc pins the hotpath contract: one proposal
// sweep allocates at most the parallel.For closure — nothing per vertex —
// on one machine of each closed-form Dists kind: an even torus (labels),
// an odd torus (coordinate table), a hypercube and a fat-tree.
func TestMultilevelProposeZeroAlloc(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	g := taskgraph.Random(512, 2048, 500, 1500, 5)
	for _, topo := range []topology.Topology{
		topology.MustTorus(8, 8), topology.MustTorus(4, 3, 5), topology.MustHypercube(6), topology.MustFatTree(4, 3),
	} {
		r := refinerFixture(t, g, topo)
		r.scanAll = true
		allocs := testing.AllocsPerRun(20, func() {
			r.propose()
		})
		// The parallel.For closure and its capture context are the only
		// allocations allowed — a constant per sweep, nothing per vertex.
		if allocs > 2 {
			t.Fatalf("%s: propose sweep allocates %v times; want <= 2 (the sweep closure)", topo.Name(), allocs)
		}
	}
}

// TestLocalityOrderAllocsFlat: the bisection splits one box in place, so
// the allocation count of localityOrder does not grow with the machine.
func TestLocalityOrderAllocsFlat(t *testing.T) {
	small, large := topology.MustTorus(16, 16), topology.MustTorus(64, 32, 32)
	a := testing.AllocsPerRun(5, func() { localityOrder(small) })
	b := testing.AllocsPerRun(5, func() { localityOrder(large) })
	if a != b || b > 8 {
		t.Fatalf("localityOrder allocates %v times on %s and %v on %s; want the same count, at most 8",
			a, small.Name(), b, large.Name())
	}
}

// TestMultilevelEphemeralNoMatrix checks the memory contract: placing a
// large graph on a large machine must not materialize a distance matrix —
// the subset adapter is Ephemeral and the refiner uses closed-form
// distances only.
func TestMultilevelEphemeralNoMatrix(t *testing.T) {
	topo, err := topology.NewTorus(16, 16, 8) // 2048 nodes
	if err != nil {
		t.Fatal(err)
	}
	g := taskgraph.Stencil9(128, 64, 1024) // 8192 tasks
	topology.PurgeDistanceCache()
	before := topology.DistCacheCounters()
	if _, err := (MultilevelMap{}).Place(g, topo); err != nil {
		t.Fatal(err)
	}
	after := topology.DistCacheCounters()
	if after.Misses != before.Misses {
		t.Fatalf("Place materialized %d distance matrices", after.Misses-before.Misses)
	}
}

// TestMultilevelPlaceHashes pins MultilevelMap.Place, placement for
// placement, on inputs the end-to-end benchmark does not cover. The hashes
// were recorded at the commit before the refiner's edge-distance cache and
// the single V-cycle distance function went in (88ef5f6): those are exact
// rewrites, so every hash must survive them. The two cases on a torus or
// mesh with refinement were re-recorded when the machine-neighbour swap
// candidates were made machine neighbours (rank read through procIndex);
// hop-bytes went random-fractional/torus 181437.7571 → 173921.618 and
// stencil/mesh 5371648 → 5304064. The three on a labelled machine were
// re-recorded when the finest level gained the label-cut pass; hop-bytes
// went random-fractional/torus 173921.618 → 163465.5621, stencil/mesh
// 5304064 → 5292288 and rgg/hypercube 20414220.86 → 17782295.04. The
// fat-tree has no labels, so its hash did not move.
func TestMultilevelPlaceHashes(t *testing.T) {
	cases := []struct {
		name string
		s    MultilevelMap
		g    *taskgraph.Graph
		topo topology.Topology
		want uint64
	}{
		{"random-fractional/torus", MultilevelMap{}, taskgraph.Random(3000, 12000, 0.37, 9.91, 11),
			topology.MustTorus(8, 8, 4), 0x11fc2c3ef1f858e5},
		{"stencil/mesh", MultilevelMap{}, taskgraph.Stencil9(48, 48, 1024),
			topology.MustMesh(12, 12), 0xd3272f5ffe2b9da5},
		{"rgg/hypercube", MultilevelMap{}, taskgraph.RandomGeometricDeg(4000, 8, 1e4, 5),
			topology.MustHypercube(7), 0xc3aa0f4e34434e45},
		{"random/fattree", MultilevelMap{}, taskgraph.Random(2000, 8000, 100, 1000, 3),
			topology.MustFatTree(4, 3), 0xa272db575b1c7665},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pl, err := tc.s.Place(tc.g, tc.topo)
			if err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			var b [8]byte
			for _, q := range pl {
				binary.LittleEndian.PutUint64(b[:], uint64(q))
				h.Write(b[:])
			}
			if got := h.Sum64(); got != tc.want {
				t.Fatalf("placement hash %#x, want %#x", got, tc.want)
			}
		})
	}
}

// TestMLRefinerDeltaIsHopBytes: the V-cycle's swap score is the exact
// hop-bytes change. At the finest level every proposal's delta, scored
// against the live layout, must equal HopBytes after the swap minus
// HopBytes before, to 1e-9 of the hop-bytes being subtracted. The machines
// cover each closed-form Dists kind. mesh:70000 is a line longer than a
// uint16 can count; a full HopBytes there costs a millisecond, so each
// pass checks the first 32 proposals touching an edge longer than 65 535
// hops, before or after the swap, and one vertex in 1024 besides.
func TestMLRefinerDeltaIsHopBytes(t *testing.T) {
	const far = 65535
	small := taskgraph.Random(512, 2048, 0.5, 1.5, 5)
	cases := []struct {
		g    *taskgraph.Graph
		topo topology.Topology
	}{
		{small, topology.MustTorus(8, 8)},
		{small, topology.MustTorus(4, 3, 5)},
		{small, topology.MustHypercube(6)},
		{small, topology.MustFatTree(4, 3)},
		{taskgraph.Random(70000, 140000, 0.5, 1.5, 5), topology.MustMesh(70000)},
	}
	for _, tc := range cases {
		r := refinerFixture(t, tc.g, tc.topo)
		long := tc.topo.Nodes() > far
		checked, farChecked := 0, 0
		for pass := 0; pass < 3; pass++ {
			r.scanAll = true
			r.propose()
			m := append(Mapping(nil), r.repc...)
			before := HopBytes(tc.g, tc.topo, m)
			passFar := 0
			for v, c := range r.proposals {
				if c < 0 {
					continue
				}
				got := r.swapDelta(int32(v), c, m[v], m[c])
				touchesFar := false
				for _, x := range []int{v, int(c)} {
					adj, _ := tc.g.Neighbors(x)
					for _, u := range adj {
						pu := m[u]
						touchesFar = touchesFar || tc.topo.Distance(m[v], pu) > far || tc.topo.Distance(m[c], pu) > far
					}
				}
				if touchesFar && passFar < 32 {
					passFar++
				} else if long && v%1024 != 0 {
					continue
				}
				m[v], m[c] = m[c], m[v]
				after := HopBytes(tc.g, tc.topo, m)
				m[v], m[c] = m[c], m[v]
				if want := after - before; math.Abs(got-want) > 1e-9*max(before, after) {
					t.Fatalf("%s pass %d: swap (%d,%d) scored %v, HopBytes moved %v", tc.topo.Name(), pass, v, c, got, want)
				}
				checked++
			}
			farChecked += passFar
			if r.commit() == 0 {
				break
			}
		}
		if checked == 0 || long != (farChecked > 0) {
			t.Fatalf("%s: %d proposals checked, %d over an edge longer than %d hops", tc.topo.Name(), checked, farChecked, far)
		}
		t.Logf("%s: %d proposals checked, %d over an edge longer than %d hops", tc.topo.Name(), checked, farChecked, far)
	}
}

// TestMLRefinerNeighborCandidates: the "machine-neighbour" swap candidates
// are machine neighbours. At n == p every processor holds one slot, so the
// owner proposeOne reads for each neighbour rank q of a vertex's
// representative must sit on q itself, one hop away. Slots run in the
// machine's bisection order, not rank order, so reading q as an order
// index instead of a rank fails this on a torus.
func TestMLRefinerNeighborCandidates(t *testing.T) {
	topo := topology.MustTorus(8, 8)
	r := refinerFixture(t, taskgraph.Random(64, 256, 1, 9, 3), topo)
	for v := int32(0); v < int32(r.lvl.N); v++ {
		pv := r.repc[v]
		for _, q := range r.procNeighbors(pv) {
			c := r.owner(q)
			if pc := r.repc[c]; int(pc) != q || topo.Distance(int(pv), int(pc)) != 1 {
				t.Fatalf("vertex %d on %d: the candidate for neighbour %d is vertex %d on %d, %d hops away",
					v, pv, q, c, pc, topo.Distance(int(pv), int(pc)))
			}
		}
	}
}

// TestMLRefinerDistMatchesTopology: the fast path is the topology. The
// coarse map and projectLevel measure through the refiner's oracle r.d,
// so it must agree with Topology.Distance on every pair, on each
// closed-form kind of the oracle: an odd torus and a 65-bit mesh
// (coordinate table), an even torus, a small mesh and a hypercube
// (labels), and a fat-tree.
func TestMLRefinerDistMatchesTopology(t *testing.T) {
	for _, topo := range []topology.Topology{
		topology.MustTorus(4, 3, 5), topology.MustMesh(66), topology.MustTorus(4, 6, 2), topology.MustMesh(5, 4),
		topology.MustHypercube(6), topology.MustFatTree(4, 3),
	} {
		p := topo.Nodes()
		r := newMLRefiner(topo, localityOrder(topo), p, p)
		for a := 0; a < p; a++ {
			for b := 0; b < p; b++ {
				if got, want := r.d.Dist(a, b), topo.Distance(a, b); got != want {
					t.Fatalf("%s: r.d.Dist(%d,%d) = %d, Topology.Distance %d", topo.Name(), a, b, got, want)
				}
			}
		}
	}
}
