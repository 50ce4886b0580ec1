package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

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
		RefineTopoLB{Base: Random{Seed: 3}, MaxPasses: 4},
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
// table stores exactly the integers Distance returns, so disabling it
// must not change a single placement.
func TestMappingsIdenticalWithAndWithoutDistanceMatrix(t *testing.T) {
	to := topology.MustTorus(4, 2, 2)
	n := to.Nodes()
	for seed := int64(0); seed < 4; seed++ {
		g := taskgraph.Random(n, 2*n, 1, 16, seed)
		for _, s := range determinismStrategies() {
			with, err := s.Map(g, to)
			if err != nil {
				t.Fatal(err)
			}
			prev := topology.SetDistanceMatrixCap(0)
			without, errNo := s.Map(g, to)
			topology.SetDistanceMatrixCap(prev)
			if errNo != nil {
				t.Fatal(errNo)
			}
			for v := range with {
				if with[v] != without[v] {
					t.Fatalf("%s seed %d: matrix changes placement of task %d (%d vs %d)",
						s.Name(), seed, v, with[v], without[v])
				}
			}
		}
	}
}
