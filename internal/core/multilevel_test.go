package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
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
	n, p := g.NumVertices(), topo.Nodes()
	perm := rand.New(rand.NewSource(7)).Perm(n)
	start := make([]int32, n)
	for v, s := range perm {
		start[v] = int32(s)
	}
	r := newMLRefiner(topo, localityOrder(topo), n, p)
	r.setLevel(partition.FromTaskGraph(g), start)
	return r
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

// TestMultilevelRefineDisabled checks the RefinePasses < 0 switch: with
// refinement off, the placement is pure coarse projection.
func TestMultilevelRefineDisabled(t *testing.T) {
	topo, err := topology.NewTorus(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	g := taskgraph.Stencil9(32, 32, 1024)
	off, err := MultilevelMap{RefinePasses: -1}.Place(g, topo)
	if err != nil {
		t.Fatal(err)
	}
	on, err := MultilevelMap{}.Place(g, topo)
	if err != nil {
		t.Fatal(err)
	}
	hbOff := HopBytes(g, topo, off)
	hbOn := HopBytes(g, topo, on)
	if hbOn > hbOff {
		t.Fatalf("refinement made the mapping worse: %g (on) > %g (off)", hbOn, hbOff)
	}
}

// TestMultilevelProposeZeroAlloc pins the hotpath contract: one proposal
// sweep allocates at most the parallel.For closure — nothing per vertex.
func TestMultilevelProposeZeroAlloc(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	topo, err := topology.NewTorus(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	g := taskgraph.Random(512, 2048, 500, 1500, 5)
	r := refinerFixture(t, g, topo)
	r.scanAll = true
	allocs := testing.AllocsPerRun(20, func() {
		r.propose()
	})
	// The parallel.For closure and its capture context are the only
	// allocations allowed — a constant per sweep, nothing per vertex.
	if allocs > 2 {
		t.Fatalf("propose sweep allocates %v times; want <= 2 (the sweep closure)", allocs)
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
// stencil/mesh 5371648 → 5304064.
func TestMultilevelPlaceHashes(t *testing.T) {
	cases := []struct {
		name string
		s    MultilevelMap
		g    *taskgraph.Graph
		topo topology.Topology
		want uint64
	}{
		{"random-fractional/torus", MultilevelMap{}, taskgraph.Random(3000, 12000, 0.37, 9.91, 11),
			topology.MustTorus(8, 8, 4), 0x0be999fe6fe1c525},
		{"stencil/mesh", MultilevelMap{}, taskgraph.Stencil9(48, 48, 1024),
			topology.MustMesh(12, 12), 0xa23d8445a1148065},
		{"rgg/hypercube", MultilevelMap{}, taskgraph.RandomGeometricDeg(4000, 8, 1e4, 5),
			topology.MustHypercube(7), 0xaf50ad6bd906df05},
		{"random/fattree", MultilevelMap{}, taskgraph.Random(2000, 8000, 100, 1000, 3),
			topology.MustFatTree(4, 3), 0xa272db575b1c7665},
		{"stencil/torus/no-refine", MultilevelMap{RefinePasses: -1}, taskgraph.Stencil9(64, 64, 1024),
			topology.MustTorus(8, 8), 0xe8d61c8fef6e2325},
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

// checkEdgeCache fails unless every edge slot of the refiner's level holds
// the current length of its edge, and returns how many slots are stored
// saturated (and so answered by recomputation).
func checkEdgeCache(t *testing.T, r *mlRefiner, when string) int {
	t.Helper()
	saturated := 0
	for v := int32(0); v < int32(r.lvl.N); v++ {
		pv := r.repc[v]
		for i := r.lvl.Xadj[v]; i < r.lvl.Xadj[v+1]; i++ {
			u := r.lvl.Adjncy[i]
			want := r.dist(pv, r.repc[u])
			if r.edist[i] != saturate(want) || r.edgeDist(i, pv, r.repc[u]) != want {
				t.Fatalf("%s: edge slot %d (%d-%d) caches %d, its length is %d", when, i, v, u, r.edist[i], want)
			}
			if r.edist[i] == edistFar {
				saturated++
			}
		}
	}
	return saturated
}

// twoDistanceDelta is swapDelta as it was before the edge cache: both
// lengths of every edge computed on the spot, subtracted as float64.
func twoDistanceDelta(r *mlRefiner, v, c int32) float64 {
	lvl, pv, pc := r.lvl, r.repc[v], r.repc[c]
	d := 0.0
	for i := lvl.Xadj[v]; i < lvl.Xadj[v+1]; i++ {
		if u := lvl.Adjncy[i]; u != c {
			pu := r.repc[u]
			d += lvl.Adjwgt[i] * (float64(r.dist(pc, pu)) - float64(r.dist(pv, pu)))
		}
	}
	for i := lvl.Xadj[c]; i < lvl.Xadj[c+1]; i++ {
		if u := lvl.Adjncy[i]; u != v {
			pu := r.repc[u]
			d += lvl.Adjwgt[i] * (float64(r.dist(pv, pu)) - float64(r.dist(pc, pu)))
		}
	}
	return d
}

// TestMLRefinerEdgeCache: the cache is the truth. After setLevel and after
// every commit of a six-pass run on the shuffled fixture, every slot holds
// its edge's current length, and the one-distance swapDelta equals the
// two-distance one bit for bit on every proposal. The second machine is a
// line longer than a uint16 can count, so some entries are stored
// saturated and must be recomputed on read.
func TestMLRefinerEdgeCache(t *testing.T) {
	cases := []struct {
		g             *taskgraph.Graph
		topo          topology.Topology
		wantSaturated bool
	}{
		{taskgraph.Random(512, 2048, 0.5, 1.5, 5), topology.MustTorus(8, 8), false},
		{taskgraph.Random(70000, 140000, 0.5, 1.5, 5), topology.MustMesh(70000), true},
	}
	for _, tc := range cases {
		r := refinerFixture(t, tc.g, tc.topo)
		saturated := checkEdgeCache(t, r, "after setLevel")
		if tc.wantSaturated != (saturated > 0) {
			t.Fatalf("%s: %d saturated cache entries, want some: %v", tc.topo.Name(), saturated, tc.wantSaturated)
		}
		for pass := 0; pass < 6; pass++ {
			r.scanAll = true
			r.propose()
			for v, c := range r.proposals {
				if c < 0 {
					continue
				}
				got := r.swapDelta(int32(v), c, r.repc[v], r.repc[c])
				if want := twoDistanceDelta(r, int32(v), c); got != want {
					t.Fatalf("%s pass %d: swapDelta(%d,%d) = %v, two-distance form %v", tc.topo.Name(), pass, v, c, got, want)
				}
			}
			moves := r.commit()
			checkEdgeCache(t, r, fmt.Sprintf("%s after commit %d", tc.topo.Name(), pass))
			if moves == 0 {
				break
			}
		}
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
// coarse map and projectLevel measure through the refiner's dist, so it
// must agree with Topology.Distance on every pair, on each closed-form
// kind of the oracle: an odd torus and a 65-bit mesh (coordinate table),
// an even torus and a small mesh (labels), a hypercube and a fat-tree.
func TestMLRefinerDistMatchesTopology(t *testing.T) {
	for _, topo := range []topology.Topology{
		topology.MustTorus(4, 3, 5), topology.MustMesh(66), topology.MustTorus(4, 6, 2), topology.MustMesh(5, 4),
		topology.MustHypercube(6), topology.MustFatTree(4, 3),
	} {
		p := topo.Nodes()
		r := newMLRefiner(topo, localityOrder(topo), p, p)
		for a := 0; a < p; a++ {
			for b := 0; b < p; b++ {
				if got, want := r.dist(int32(a), int32(b)), topo.Distance(a, b); int(got) != want {
					t.Fatalf("%s: dist(%d,%d) = %d, Topology.Distance %d", topo.Name(), a, b, got, want)
				}
			}
		}
	}
}
