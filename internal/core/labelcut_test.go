package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/partition"
	"repro/internal/taskgraph"
	"repro/internal/topology"
)

// shuffledRefiner builds a finest-level refiner over g on topo whose slot
// layout is a permutation drawn from seed: any n >= p tasks, every
// processor holding ⌊n/p⌋ or ⌈n/p⌉ of them.
func shuffledRefiner(g *taskgraph.Graph, topo topology.Topology, seed int64) *mlRefiner {
	n, p := g.NumVertices(), topo.Nodes()
	start := make([]int32, n)
	for v, s := range rand.New(rand.NewSource(seed)).Perm(n) {
		start[v] = int32(s)
	}
	r := newMLRefiner(topo, localityOrder(topo), n, p)
	r.setLevel(partition.FromTaskGraph(g), start)
	return r
}

// procCounts returns how many tasks m puts on each of p processors.
func procCounts(m Mapping, p int) []int {
	c := make([]int, p)
	for _, q := range m {
		c[q]++
	}
	return c
}

// requireLabelCutNeverRaises runs the label-cut pass on a shuffled layout and
// checks its contract: hop-bytes does not rise (exactly, when every
// weight is an integer; to 1e-9 of the total otherwise), every processor
// keeps its task count, the slot layout stays consistent with repc, and
// on a machine without labels nothing moves. It returns the swap count.
func requireLabelCutNeverRaises(t *testing.T, g *taskgraph.Graph, topo topology.Topology, seed int64, integral bool) int {
	t.Helper()
	r := shuffledRefiner(g, topo, seed)
	before := slices.Clone(r.repc)
	hbBefore := HopBytes(g, topo, before)
	swaps := r.labelCut()
	hbAfter := HopBytes(g, topo, r.repc)
	tol := 0.0
	if !integral {
		tol = 1e-9 * hbBefore
	}
	if hbAfter > hbBefore+tol {
		t.Fatalf("%s: %d swaps raised hop-bytes %v -> %v", topo.Name(), swaps, hbBefore, hbAfter)
	}
	if !slices.Equal(procCounts(before, topo.Nodes()), procCounts(r.repc, topo.Nodes())) {
		t.Fatalf("%s: %d swaps changed a processor's task count", topo.Name(), swaps)
	}
	for v := int32(0); v < int32(r.lvl.N); v++ {
		if s := r.start[v]; r.slotOwner[s] != v || r.repc[v] != int(r.rep(v)) {
			t.Fatalf("%s: task %d at slot %d, owner %d, repc %d, rep %d", topo.Name(), v, s, r.slotOwner[s], r.repc[v], r.rep(v))
		}
	}
	if d := topology.ClosedDists(topo); d.Labels() == nil && (swaps != 0 || !slices.Equal(before, r.repc)) {
		t.Fatalf("%s has no labels, yet the pass made %d swaps", topo.Name(), swaps)
	}
	return swaps
}

// TestLabelCutNeverRaises: the pass keeps its contract on random small
// graphs, integral and fractional, sparse and dense, at n = p and up to
// n = 5p, on meshes, even tori and hypercubes, and is a no-op on an odd
// torus, a fat-tree and a 65-bit mesh. It must swap somewhere, or the
// test proves nothing. Committing a proposal without rescoring it against
// the live layout raises hop-bytes here.
func TestLabelCutNeverRaises(t *testing.T) {
	labelled := []topology.Topology{
		topology.MustMesh(4, 4), topology.MustMesh(2, 3, 2), topology.MustMesh(7),
		topology.MustTorus(4, 4), topology.MustTorus(2, 6), topology.MustTorus(4, 2, 2),
		topology.MustHypercube(3), topology.MustHypercube(5),
	}
	bare := []topology.Topology{topology.MustTorus(3, 4), topology.MustFatTree(2, 3), topology.MustMesh(66)}
	swaps := 0
	for _, topo := range append(labelled, bare...) {
		p := topo.Nodes()
		for seed := int64(1); seed <= 8; seed++ {
			n := p * int(1+seed/2)
			for _, integral := range []bool{true, false} {
				t.Run(fmt.Sprintf("%s/n=%d/seed=%d/integral=%v", topo.Name(), n, seed, integral), func(t *testing.T) {
					g := taskgraph.Random(n, int(seed%3+1)*n, 0.5, 9.5, seed)
					if integral {
						g = integerWeights(g)
					}
					swaps += requireLabelCutNeverRaises(t, g, topo, seed, integral)
				})
			}
		}
	}
	if swaps == 0 {
		t.Fatal("the pass never swapped")
	}
}

// FuzzLabelCutNeverRaises: the same contract on inputs read from the
// bytes: a mesh, even torus or hypercube of up to 64 processors, or one
// of the machines the pass skips; n >= p tasks; a random graph with
// integral or fractional weights; and a layout seed.
func FuzzLabelCutNeverRaises(f *testing.F) {
	f.Add([]byte{0, 3, 3, 0, 2, 1, 9, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{1, 2, 4, 6, 5, 0, 7, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	f.Add([]byte{2, 4, 0, 0, 1, 1, 3, 200, 100, 50, 25, 12, 6, 3})
	f.Add([]byte{3, 0, 0, 0, 0, 0, 4, 1, 1, 1, 1})
	f.Add([]byte{4, 1, 0, 0, 3, 0, 2})
	f.Add([]byte{5, 0, 0, 0, 7, 1, 5, 17})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		var topo topology.Topology
		switch next() % 6 {
		case 0:
			topo = topology.MustMesh(1+next()%5, 1+next()%5, 1+next()%3)
		case 1:
			topo = topology.MustTorus(2+2*(next()%3), 2+2*(next()%3), 1+next()%2)
		case 2:
			topo = topology.MustHypercube(next() % 7)
		case 3:
			topo = topology.MustTorus(3+2*(next()%2), 1+next()%4)
		case 4:
			topo = topology.MustFatTree(2+next()%2, 1+next()%3)
		default:
			topo = topology.MustMesh(66 + next()%8)
		}
		p := topo.Nodes()
		n := p + next()%(2*p+1)
		integral := next()%2 == 0
		seed := int64(next())
		b := taskgraph.NewBuilder(n)
		for len(data) >= 3 {
			a, c, w := next()%n, next()%n, float64(1+next())
			if !integral {
				w = w/7 + 0.125
			}
			if a != c {
				b.AddEdge(a, c, w)
			}
		}
		requireLabelCutNeverRaises(t, b.Build("fuzz"), topo, seed, integral)
	})
}

// TestLabelCutAllocsPerCall pins the allocation contract of the pass: its
// candidate lists and one closure per sweep, a count that does not grow
// with the task count — sixteen times the tasks, the same ceiling.
func TestLabelCutAllocsPerCall(t *testing.T) {
	topo := topology.MustTorus(8, 8)
	digits := 8 // 4 + 4 label bits
	ceiling := float64(3 + cutOrders*(1+digits)*2)
	for _, n := range []int{512, 8192} {
		g := taskgraph.Random(n, 4*n, 500, 1500, 5)
		r := shuffledRefiner(g, topo, 7)
		allocs := testing.AllocsPerRun(5, func() { r.labelCut() })
		if allocs > ceiling {
			t.Fatalf("n=%d: the label-cut pass allocates %v times; want <= %v (per call, not per task)", n, allocs, ceiling)
		}
	}
}
