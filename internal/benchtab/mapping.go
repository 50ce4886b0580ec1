package benchtab

// Suite "mapping": the paper's strategies, Refine and HopBytes on a
// 2D-mesh pattern mapped to a 2D torus of the same shape. The reference
// side is the same kernel with the distance matrix disabled (every hot
// loop distance XORs and popcounts the torus's partial-cube labels, through
// topology.Dists), at the same width: the ratio at
// GOMAXPROCS 1 is the matrix's contribution alone, and a row's own times
// across widths are the fork-join substrate's.

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/taskgraph"
	"repro/internal/topology"
)

// noMatrix runs fn with distance-matrix materialization disabled.
func noMatrix(fn func(*testing.B)) func(*testing.B) {
	return func(b *testing.B) {
		defer topology.SetDistanceMatrixCap(topology.SetDistanceMatrixCap(0))
		fn(b)
	}
}

func mappingRow(name string, smoke bool, run func(*testing.B)) Row {
	return Row{Suite: "mapping", Name: name, Smoke: smoke, Run: run, Ref: noMatrix(run), RefName: "no-matrix"}
}

// MapBench measures strategy s on a rx×ry task mesh mapped to a rx×ry
// torus (the paper's benchmark pattern), warming up once so the lazily
// built distance matrix is charged to set-up.
func MapBench(s core.Strategy, rx, ry int) func(*testing.B) {
	return func(b *testing.B) {
		g := taskgraph.Mesh2D(rx, ry, 1e5)
		to := topology.MustTorus(rx, ry)
		if _, err := s.Map(g, to); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Map(g, to); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func mapRow(name string, smoke bool, s core.Strategy, rx, ry int) Row {
	return mappingRow(fmt.Sprintf("%s/p=%d", name, rx*ry), smoke, MapBench(s, rx, ry))
}

// randomOn is the seeded random placement Refine and HopBytes start from.
func randomOn(b *testing.B, rx, ry int) (*taskgraph.Graph, topology.Topology, core.Mapping) {
	g := taskgraph.Mesh2D(rx, ry, 1e5)
	to := topology.MustTorus(rx, ry)
	m, err := (core.Random{Seed: 1}).Map(g, to)
	if err != nil {
		b.Fatal(err)
	}
	return g, to, m
}

func refineRow(smoke bool, rx, ry int) Row {
	return mappingRow(fmt.Sprintf("Refine/p=%d", rx*ry), smoke, func(b *testing.B) {
		g, to, m0 := randomOn(b, rx, ry)
		core.Refine(g, to, m0.Clone(), 1) // warm-up
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			core.Refine(g, to, m0.Clone(), 1)
		}
	})
}

func hopBytesRow(smoke bool, rx, ry int) Row {
	return mappingRow(fmt.Sprintf("HopBytes/p=%d", rx*ry), smoke, func(b *testing.B) {
		g, to, m := randomOn(b, rx, ry)
		core.HopBytes(g, to, m) // warm-up
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			core.HopBytes(g, to, m)
		}
	})
}

// mappingRows: TopoLB's cost as the machine grows, the three estimator
// orders at one size each way (§4.3–4.4: second order is the one whose
// cost fits a load-balancing step), TopoCentLB, and the two kernels
// every strategy leans on.
func mappingRows() []Row {
	first, third := core.TopoLB{Order: core.OrderFirst}, core.TopoLB{Order: core.OrderThird}
	return []Row{
		mapRow("TopoLB", false, core.TopoLB{}, 8, 8),
		mapRow("TopoLB", true, core.TopoLB{}, 16, 16),
		mapRow("TopoLB", false, core.TopoLB{}, 32, 16),
		mapRow("TopoLB", false, core.TopoLB{}, 32, 32),
		mapRow("TopoLB(order=1)", false, first, 16, 16),
		mapRow("TopoLB(order=3)", false, third, 8, 8),
		mapRow("TopoLB(order=3)", false, third, 16, 16),
		mapRow("TopoCentLB", true, core.TopoCentLB{}, 16, 16),
		mapRow("TopoCentLB", false, core.TopoCentLB{}, 32, 32),
		refineRow(true, 16, 16),
		hopBytesRow(true, 32, 32),
		hopBytesRow(false, 64, 64),
	}
}
