package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/hiertopo"
	"repro/internal/partition"
	"repro/internal/taskgraph"
	"repro/internal/topology"
)

func mustHier(t *testing.T, spec string) *hiertopo.Hierarchy {
	t.Helper()
	h, err := hiertopo.Parse(spec)
	if err != nil {
		t.Fatalf("Parse(%q): %v", spec, err)
	}
	return h
}

func TestHierMapRequiresHierarchy(t *testing.T) {
	g := taskgraph.Mesh2D(4, 4, 1.0)
	if _, err := (HierMap{}).Place(g, topology.MustTorus(4, 4)); err == nil {
		t.Fatalf("Place on a flat torus succeeded, want error")
	}
	if _, err := (HierMap{}).Map(g, topology.MustTorus(4, 4)); err == nil {
		t.Fatalf("Map on a flat torus succeeded, want error")
	}
}

func TestHierMapBijective(t *testing.T) {
	h := mustHier(t, "pod:2/rack:2/node:4:mesh-2x2")
	g := taskgraph.Mesh2D(8, 8, 1e5)
	m, err := HierMap{}.Map(g, h)
	if err != nil {
		t.Fatalf("Map: %v", err)
	}
	if err := m.Validate(g, h); err != nil {
		t.Fatalf("not a bijection: %v", err)
	}
}

func TestHierMapSurjective(t *testing.T) {
	h := mustHier(t, "pod:2/rack:2/node:4:mesh-2x2")
	g := taskgraph.RandomGeometricDeg(200, 6, 1e5, 5)
	pl, err := HierMap{}.Place(g, h)
	if err != nil {
		t.Fatalf("Place: %v", err)
	}
	seen := make([]int, h.Nodes())
	for task, proc := range pl {
		if proc < 0 || proc >= h.Nodes() {
			t.Fatalf("task %d on processor %d, out of range", task, proc)
		}
		seen[proc]++
	}
	for q, c := range seen {
		if c == 0 {
			t.Fatalf("processor %d received no task", q)
		}
	}
}

func TestHierMapPacking(t *testing.T) {
	h := mustHier(t, "pod:2/rack:4/node:8:torus-2x4")
	// 5 tasks pack into the first leaf.
	g := taskgraph.Ring(5, 1e5)
	pl, err := HierMap{}.Place(g, h)
	if err != nil {
		t.Fatalf("Place: %v", err)
	}
	for task, proc := range pl {
		if proc < 0 || proc >= h.LeafSize() {
			t.Fatalf("task %d on processor %d, want within the first leaf [0,%d)", task, proc, h.LeafSize())
		}
	}
	// 100 tasks pack into the first pod (256 processors), no duplicates.
	g = taskgraph.Mesh2D(10, 10, 1e5)
	pl, err = HierMap{}.Place(g, h)
	if err != nil {
		t.Fatalf("Place: %v", err)
	}
	used := make(map[int]bool)
	for task, proc := range pl {
		if proc < 0 || proc >= h.InstanceSize(0) {
			t.Fatalf("task %d on processor %d, want within the first pod [0,%d)", task, proc, h.InstanceSize(0))
		}
		if used[proc] {
			t.Fatalf("processor %d assigned twice in packing mode", proc)
		}
		used[proc] = true
	}
}

func TestHierMapDeterministicAcrossGOMAXPROCS(t *testing.T) {
	h := mustHier(t, "pod:2/rack:4/node:8:torus-2x4")
	g := taskgraph.Stencil9(40, 24, 1e5)
	var ref []int
	orig := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(orig)
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		pl, err := HierMap{Seed: 42}.Place(g, h)
		if err != nil {
			t.Fatalf("Place at GOMAXPROCS=%d: %v", procs, err)
		}
		if ref == nil {
			ref = pl
			continue
		}
		for v := range pl {
			if pl[v] != ref[v] {
				t.Fatalf("placement differs at GOMAXPROCS=%d, task %d: %d vs %d", procs, v, pl[v], ref[v])
			}
		}
	}
}

// TestHierBeatsFlatOnStencil pins the headline acceptance criterion: on
// the reference 2-pod/4-rack/8-node hierarchy with 10× per-level cost
// ratios, the two-phase hier strategy produces at least 25% lower
// composite hop-bytes than the best hierarchy-oblivious placer on the
// stencil workload. The 80×48 extent is deliberately not a power-of-two
// square: aligned extents let a space-filling curve luck into near-
// optimal level cuts, which would measure curve alignment, not
// hierarchy awareness.
func TestHierBeatsFlatOnStencil(t *testing.T) {
	h := mustHier(t, "pod:2/rack:4/node:8:torus-2x4")
	g := taskgraph.Stencil9(80, 48, 1e5)
	hier, err := HierMap{}.Place(g, h)
	if err != nil {
		t.Fatalf("hier Place: %v", err)
	}
	hierHB := HopBytes(g, h, hier)

	bestFlat := 0.0
	bestName := ""
	for _, flat := range []Placer{SFC{}, RCBSFC{}, MultilevelMap{}} {
		pl, err := flat.Place(g, h)
		if err != nil {
			t.Fatalf("%s Place: %v", flat.Name(), err)
		}
		hb := HopBytes(g, h, pl)
		if bestName == "" || hb < bestFlat {
			bestFlat, bestName = hb, flat.Name()
		}
	}
	t.Logf("hier=%.4g, best flat (%s)=%.4g, reduction=%.1f%%",
		hierHB, bestName, bestFlat, 100*(1-hierHB/bestFlat))
	if hierHB > 0.75*bestFlat {
		t.Fatalf("hier composite hop-bytes %.4g not >= 25%% below best flat (%s) %.4g",
			hierHB, bestName, bestFlat)
	}
}

// stencilCoords builds the grid geometry for a Stencil9(rx, ry) graph
// (id = x*ry + y, position (x, y)), matching cliutil.PatternCoords.
func stencilCoords(rx, ry int) [][]float64 {
	coords := make([][]float64, rx*ry)
	for x := 0; x < rx; x++ {
		for y := 0; y < ry; y++ {
			coords[x*ry+y] = []float64{float64(x), float64(y)}
		}
	}
	return coords
}

// TestHierMapGeoPartition pins the coordinate front-end: with task
// geometry, phase 1 splits by exact-count coordinate bisection, the
// result stays bijective and deterministic at any GOMAXPROCS, and on the
// acceptance stencil it improves on (or at least matches) both the
// graph-partitioned hier mapping and the best coordinate-informed flat
// placer.
func TestHierMapGeoPartition(t *testing.T) {
	h := mustHier(t, "pod:2/rack:4/node:8:torus-2x4")
	g := taskgraph.Stencil9(80, 48, 1e5)
	coords := stencilCoords(80, 48)

	geo := HierMap{Coords: coords}
	pl, err := geo.Place(g, h)
	if err != nil {
		t.Fatalf("Place with coords: %v", err)
	}
	counts := make([]int, h.Nodes())
	for _, p := range pl {
		counts[p]++
	}
	for p, cnt := range counts {
		if cnt == 0 {
			t.Fatalf("processor %d received no task (placement must stay surjective)", p)
		}
	}
	geoHB := HopBytes(g, h, pl)

	graphPl, err := HierMap{}.Place(g, h)
	if err != nil {
		t.Fatalf("Place without coords: %v", err)
	}
	if graphHB := HopBytes(g, h, graphPl); geoHB > graphHB {
		t.Errorf("geo partition hop-bytes %.4g worse than graph partition %.4g", geoHB, graphHB)
	}
	for _, flat := range []Placer{SFC{Coords: coords}, RCBSFC{Coords: coords}} {
		fpl, err := flat.Place(g, h)
		if err != nil {
			t.Fatalf("%s Place: %v", flat.Name(), err)
		}
		if fhb := HopBytes(g, h, fpl); geoHB > fhb {
			t.Errorf("geo hier hop-bytes %.4g worse than coord-informed %s %.4g", geoHB, flat.Name(), fhb)
		}
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, gmp := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(gmp)
		again, err := geo.Place(g, h)
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", gmp, err)
		}
		for i := range pl {
			if pl[i] != again[i] {
				t.Fatalf("GOMAXPROCS=%d: placement diverges at task %d: %d != %d", gmp, i, again[i], pl[i])
			}
		}
	}

	// A coords slice of the wrong length is ignored, not misapplied.
	short := HierMap{Coords: coords[:10]}
	shortPl, err := short.Place(g, h)
	if err != nil {
		t.Fatalf("Place with short coords: %v", err)
	}
	for i := range shortPl {
		if shortPl[i] != graphPl[i] {
			t.Fatalf("short coords changed the graph-partition placement at task %d", i)
		}
	}
}

// TestHierMapRefusesMalformedCoords: HierMap reads coordinates as
// partition.RCB does, so a coordinate slice of the right length that RCB
// refuses (a ragged row, no axes, more than eight) makes Place return
// RCB's error instead of reading absent axes as 0 — also when the job
// fits one leaf and no region is ever split.
func TestHierMapRefusesMalformedCoords(t *testing.T) {
	h := mustHier(t, "pod:2/rack:4/node:8:torus-2x4")
	wide := func(n, dims int) [][]float64 {
		c := make([][]float64, n)
		for i := range c {
			c[i] = make([]float64, dims)
			if dims > 0 {
				c[i][0] = float64(i)
			}
		}
		return c
	}
	for _, n := range []int{h.Nodes(), 3} {
		g := taskgraph.Ring(n, 1e5)
		ragged := wide(n, 2)
		ragged[n-1] = ragged[n-1][:1]
		cases := []struct {
			name   string
			coords [][]float64
		}{
			{"ragged row", ragged},
			{"zero axes", wide(n, 0)},
			{"nine axes", wide(n, 9)},
		}
		for _, tc := range cases {
			_, want := partition.RCB{Coords: tc.coords}.Partition(g, 1)
			if want == nil {
				t.Fatalf("n=%d %s: partition.RCB accepts these coordinates", n, tc.name)
			}
			_, err := HierMap{Coords: tc.coords}.Place(g, h)
			if err == nil || !strings.Contains(err.Error(), want.Error()) {
				t.Errorf("n=%d %s: Place error %v, want one carrying %q", n, tc.name, err, want)
			}
		}
	}
}

// hierLeafMapped is Place without its last step: phase 1 and the leaf
// kernels, before Refine.
func hierLeafMapped(t testing.TB, g *taskgraph.Graph, h *hiertopo.Hierarchy) []int {
	t.Helper()
	n := g.NumVertices()
	d := newHierDescender(HierMap{Seed: 1}, h, n)
	verts := make([]int, n)
	for i := range verts {
		verts[i] = i
	}
	if err := d.descend(g, verts, 0, 0); err != nil {
		t.Fatal(err)
	}
	return d.placement
}

// integralGraph is a seeded random graph on n tasks, about 3n edges with
// whole-number weights in [1, 100], so every hop-bytes sum over it is
// exact and "did not rise" is an exact comparison.
func integralGraph(n int, seed int64) *taskgraph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := taskgraph.NewBuilder(n)
	for e := 0; e < 3*n; e++ {
		if a, c := rng.Intn(n), rng.Intn(n); a != c {
			b.AddEdge(a, c, float64(1+rng.Intn(100)))
		}
	}
	return b.Build(fmt.Sprintf("integral(n=%d,seed=%d)", n, seed))
}

// requireRefineNeverRaises runs Refine, as Place does, on the leaf
// mapping of g and fails if it raised the hop-bytes the mapping is
// reported with or changed any processor's task count. It reports
// whether the pass lowered the hop-bytes.
func requireRefineNeverRaises(t testing.TB, g *taskgraph.Graph, h *hiertopo.Hierarchy) bool {
	t.Helper()
	pl := hierLeafMapped(t, g, h)
	before := HopBytes(g, h, pl)
	counts := make([]int, h.Nodes())
	for _, q := range pl {
		counts[q]++
	}
	Refine(g, h, pl, hierRefinePasses)
	if after := HopBytes(g, h, pl); after > before {
		t.Errorf("%s on %s: refine raised hop-bytes %v -> %v", g.Name(), h.Spec(), before, after)
	}
	for _, q := range pl {
		counts[q]--
	}
	for q, c := range counts {
		if c != 0 {
			t.Errorf("%s on %s: refine changed processor %d's task count by %d", g.Name(), h.Spec(), q, -c)
		}
	}
	return HopBytes(g, h, pl) < before
}

// TestHierRefineNeverRaisesHopBytes: on hierarchies whose level costs are
// not whole numbers, Refine must not raise HopBytes, the value every
// response and benchmark reports. Tasks number half, once and twice the
// processors: packing, bijective and surjective placements.
func TestHierRefineNeverRaisesHopBytes(t *testing.T) {
	specs := []string{
		"pod:2@2.4/rack:4@1.6/node:4@1.4:torus-2x2",
		"pod:2@3.49/rack:4@2.5:mesh-2x4",
		"pod:2@2.49/rack:2@1.51/node:2@1.49:mesh-2x2",
		"zone:2@7.5/host:4@1.5:torus-2x2",
		"pod:3@4.6/rack:2@2.5/node:2@1.5:mesh-3",
		"rack:4@1.4:mesh-2x2",
	}
	lowered := 0
	for i := 0; i < 36; i++ {
		h := mustHier(t, specs[i%len(specs)])
		n := h.Nodes() * (1 + i/len(specs)%3) / 2
		if requireRefineNeverRaises(t, integralGraph(n, int64(i)), h) {
			lowered++
		}
	}
	t.Logf("refine lowered hop-bytes in %d of 36 cases", lowered)
}

// FuzzHierRefine: the same property on hierarchies of one to three
// levels, fan-outs 1–4, fractional costs in [1, 50] and a small leaf,
// under a graph read from the remaining bytes.
func FuzzHierRefine(f *testing.F) {
	f.Add([]byte{2, 1, 90, 3, 200, 3, 40, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{3, 1, 100, 3, 60, 1, 140, 2, 30, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	f.Add([]byte{1, 3, 77, 4, 48})
	f.Add([]byte("1\x031011220\xc807012\x01yZ000"))
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		levels := make([]hiertopo.Level, 1+next()%3)
		cost := 1.0
		for i := len(levels) - 1; i >= 0; i-- {
			cost += float64(next()) / 16
			levels[i] = hiertopo.Level{Name: fmt.Sprintf("l%d", i), Count: 1 + next()%4, Cost: cost}
		}
		leaves := []string{"", "mesh-2", "mesh-3", "torus-2x2", "mesh-2x3", "hypercube-2"}
		h, err := hiertopo.New(levels, leaves[next()%len(leaves)])
		if err != nil {
			t.Fatal(err)
		}
		n := 1 + next()%(2*h.Nodes()+2)
		b := taskgraph.NewBuilder(n)
		for len(data) >= 3 {
			if a, c := next()%n, next()%n; a != c {
				b.AddEdge(a, c, float64(1+next()%100))
			}
		}
		requireRefineNeverRaises(t, b.Build("fuzz"), h)
	})
}
