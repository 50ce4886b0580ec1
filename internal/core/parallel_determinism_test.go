package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/hiertopo"
	"repro/internal/taskgraph"
	"repro/internal/topology"
)

// determinismStrategies are the paper's kernels and the refiner over them.
func determinismStrategies() []Strategy {
	return []Strategy{
		TopoLB{Order: OrderFirst},
		TopoLB{Order: OrderSecond},
		TopoLB{Order: OrderThird},
		TopoCentLB{},
		RefineTopoLB{Base: Random{Seed: 3}},
	}
}

// TestParallelMappingsIdenticalAcrossGOMAXPROCS: every strategy's
// mappings and hop-bytes bits, hashed over three machines and four random
// graphs each, against the hash recorded at GOMAXPROCS 1 when these
// kernels still called package parallel. The test sets no width of its
// own: the kernels are serial loops, and what they call that can fork
// (TotalDistances, HopBytes) has its own width tests. CI runs the package
// at GOMAXPROCS 2 and 8 against the same constants.
func TestParallelMappingsIdenticalAcrossGOMAXPROCS(t *testing.T) {
	shapes := []topology.Topology{
		topology.MustTorus(4, 4),
		topology.MustMesh(5, 3),
		topology.MustTorus(2, 3, 3),
	}
	want := map[string]uint64{
		"TopoLB(order=1)": 0x3420954234616909,
		"TopoLB":          0x794055991431156f,
		"TopoLB(order=3)": 0x0b57b7efd97cef8c,
		"TopoCentLB":      0xa05ecbe16aec6d0c,
		"Random+Refine":   0x9e911a9c507fc451,
	}
	for _, s := range determinismStrategies() {
		h := fnv.New64a()
		var b [8]byte
		for _, to := range shapes {
			n := to.Nodes()
			for seed := int64(0); seed < 4; seed++ {
				g := taskgraph.Random(n, 2*n, 1, 16, seed)
				m, err := s.Map(g, to)
				if err != nil {
					t.Fatalf("%s/%s/seed=%d: %v", s.Name(), to.Name(), seed, err)
				}
				for _, p := range m {
					binary.LittleEndian.PutUint64(b[:], uint64(p))
					h.Write(b[:])
				}
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(HopBytes(g, to, m)))
				h.Write(b[:])
			}
		}
		if got := h.Sum64(); got != want[s.Name()] {
			t.Errorf("%s: mappings hash %#x, want %#x", s.Name(), got, want[s.Name()])
		}
	}
}

// TestMappingsIdenticalWithAndWithoutDistanceMatrix: the materialized
// table stores exactly the integers each closed form returns, so disabling
// it must not change a single placement or hop-bytes bit. Every oracle
// kind the kernels fall back to — a torus's and a mesh's coordinate
// table, a hypercube's labels (its ranks), a fat-tree's Distance, and a
// hierarchy's over leaves of each kind — is held to the matrix through
// every kernel that reads one: the strategies, Refine (under RefineTopoLB), HopBytes,
// RefineIncremental and HierMap's cross-leaf refine.
func TestMappingsIdenticalWithAndWithoutDistanceMatrix(t *testing.T) {
	// outcomes runs every kernel that applies to the machine and returns
	// one line per kernel: its placement and the hop-bytes bits it reads.
	outcomes := func(to topology.Topology, seed int64) []string {
		n := to.Nodes()
		g := taskgraph.Random(n, 2*n, 1, 16, seed)
		var out []string
		record := func(name string, g *taskgraph.Graph, m []int) {
			out = append(out, fmt.Sprintf("%s %v %#x", name, m, math.Float64bits(HopBytes(g, to, m))))
		}
		if h, ok := to.(*hiertopo.Hierarchy); ok {
			// Packing (the last leaf is underfull and maps onto a subset),
			// bijective, and surjective (overfull leaves go through the
			// multilevel placer).
			for _, tasks := range []int{n/2 - 1, n, 2 * n} {
				g := taskgraph.Random(tasks, 2*tasks, 1, 16, seed)
				pl, err := HierMap{Seed: seed}.Place(g, h)
				if err != nil {
					t.Fatal(err)
				}
				record(fmt.Sprintf("Hier/%d", tasks), g, pl)
			}
			return out
		}
		for _, s := range determinismStrategies() {
			m, err := s.Map(g, to)
			if err != nil {
				t.Fatal(err)
			}
			record(s.Name(), g, m)
		}
		// Two tasks a processor, so moves as well as swaps are scored.
		g2 := taskgraph.Random(2*n, 4*n, 1, 16, seed)
		m2 := make(Mapping, 2*n)
		for v := range m2 {
			m2[v] = v % n
		}
		s, err := NewIncrementalState(g2, to, m2)
		if err != nil {
			t.Fatal(err)
		}
		res := s.RefineIncremental(IncRefineOptions{MaxMigrations: -1})
		record(fmt.Sprintf("RefineIncremental(%d moves, %d swaps, %#x)", res.Moves, res.Swaps, math.Float64bits(res.HopBytesAfter)), g2, s.Mapping())
		return out
	}
	machines := []topology.Topology{
		topology.MustTorus(4, 2, 2), topology.MustMesh(4, 4), topology.MustHypercube(4), topology.MustFatTree(2, 4),
	}
	for _, leaf := range []string{"torus-2x2", "mesh-4", "hypercube-2", "fattree-2x2"} {
		h, err := hiertopo.Parse("pod:2/rack:2:" + leaf)
		if err != nil {
			t.Fatal(err)
		}
		machines = append(machines, h)
	}
	for _, to := range machines {
		for seed := int64(0); seed < 4; seed++ {
			with := outcomes(to, seed)
			prev := topology.SetDistanceMatrixCap(0)
			without := outcomes(to, seed)
			topology.SetDistanceMatrixCap(prev)
			for i := range with {
				if with[i] != without[i] {
					t.Fatalf("%s seed %d: the matrix changes a result\nwith:    %s\nwithout: %s", to.Name(), seed, with[i], without[i])
				}
			}
		}
	}
}
