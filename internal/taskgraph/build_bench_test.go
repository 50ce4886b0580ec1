package taskgraph

import (
	"runtime"
	"testing"
)

// built keeps each benchmarked graph live, so no build can be optimised
// away.
var built *Graph

// placed keeps each benchmarked coordinate table live.
var placed [][]float64

// BenchmarkBuild times the largest graphs the benchmark workloads build,
// each filled row by row: lib-scale's stencil and rgg, and svc-cold's
// LeanMD, with lib-scale's coordinates for the first two.
func BenchmarkBuild(b *testing.B) {
	for _, c := range []struct {
		name   string
		build  func() *Graph
		coords func() [][]float64
	}{
		{"stencil9:512,512", func() *Graph { return Stencil9(512, 512, 1000) }, nil},
		{"rgg:65536,8", func() *Graph { return RandomGeometricDeg(65536, 8, 1000, 1) }, nil},
		{"leanmd:256", func() *Graph { return LeanMD(256, 1000, 1) }, nil},
		{"GridCoords(512,512)", nil, func() [][]float64 { return GridCoords(512, 512) }},
		{"RandomGeometricCoords(65536)", nil, func() [][]float64 { return RandomGeometricCoords(65536, 1) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if c.build != nil {
					built = c.build()
				} else {
					placed = c.coords()
				}
			}
		})
	}
}

// TestRGGAllocsNearCSR: an rgg allocates at most 1.5× the bytes of its
// finished CSR — the points, their buckets and the vertex weights on top
// of the rows, with no edge list grown beside them. Fed through a Builder
// it allocated 35.8 MB for a CSR of about 7 MB.
func TestRGGAllocsNearCSR(t *testing.T) {
	var g *Graph
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	g = RandomGeometricDeg(65536, 8, 1000, 1)
	runtime.ReadMemStats(&after)
	xadj, adj, wgt := g.CSR()
	csr := 4*cap(xadj) + 4*cap(adj) + 8*cap(wgt)
	if got := after.TotalAlloc - before.TotalAlloc; float64(got) > 1.5*float64(csr) {
		t.Errorf("rgg:65536,8 allocated %d bytes, CSR %d: %.2f×, ceiling 1.5×", got, csr, float64(got)/float64(csr))
	}
}

// TestCoordRowsAreCapped: every pattern's coordinate rows share one
// array, and appending to a row must copy it rather than write over the
// next row.
func TestCoordRowsAreCapped(t *testing.T) {
	for name, coords := range map[string][][]float64{
		"grid":   GridCoords(3, 4),
		"leanmd": LeanMDCoords(5),
		"rgg":    RandomGeometricCoords(6, 1),
	} {
		next := append([]float64(nil), coords[1]...)
		_ = append(coords[0], -1, -1, -1)
		for k, x := range coords[1] {
			if x != next[k] {
				t.Errorf("%s: appending to row 0 changed row 1 to %v", name, coords[1])
				break
			}
		}
	}
}

// TestStencilAllocsFlat: a stencil allocates per graph, not per vertex —
// the same count at two sizes 4× apart, and under the race detector at
// most a ceiling far below the 4 096 vertices.
func TestStencilAllocsFlat(t *testing.T) {
	small := testing.AllocsPerRun(100, func() { Stencil9(32, 32, 1000) })
	large := testing.AllocsPerRun(100, func() { Stencil9(64, 64, 1000) })
	if small != large && !raceEnabled {
		t.Errorf("Stencil9 allocates %v objects at 32×32 and %v at 64×64, want the same", small, large)
	}
	if large > 32 {
		t.Errorf("Stencil9 allocates %v objects at 64×64, ceiling 32", large)
	}
}

// TestLeanMDAllocsFlat: LeanMD fills its rows in place, so the edge
// arrays are allocated once: 20 objects and 1.0 MB a graph, where a
// Builder grown append by append made 84 and 3.9 MB.
func TestLeanMDAllocsFlat(t *testing.T) {
	for _, p := range []int{1, 1024} {
		if got := testing.AllocsPerRun(5, func() { LeanMD(p, 1e4, 1) }); got > 24 {
			t.Errorf("LeanMD(%d) allocates %v objects, ceiling 24", p, got)
		}
	}
}
