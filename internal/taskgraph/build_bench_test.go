package taskgraph

import "testing"

// built keeps each benchmarked graph live, so no build can be optimised
// away.
var built *Graph

// BenchmarkBuild times the largest graphs the benchmark workloads build:
// lib-scale's stencil, filled in place, and its rgg, fed through a
// Builder; and svc-cold's LeanMD, a stencil added to a Builder.
func BenchmarkBuild(b *testing.B) {
	for _, c := range []struct {
		name  string
		build func() *Graph
	}{
		{"stencil9:512,512", func() *Graph { return Stencil9(512, 512, 1000) }},
		{"rgg:65536,8", func() *Graph { return RandomGeometricDeg(65536, 8, 1000, 1) }},
		{"leanmd:256", func() *Graph { return LeanMD(256, 1000, 1) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				built = c.build()
			}
		})
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

// TestLeanMDAllocsFlat: LeanMD sizes its Builder for every edge before
// adding one, so the edge arrays are allocated once: 16 objects and
// 1.7 MB a graph, where growing them append by append made 84 and 3.9 MB.
func TestLeanMDAllocsFlat(t *testing.T) {
	for _, p := range []int{1, 1024} {
		if got := testing.AllocsPerRun(5, func() { LeanMD(p, 1e4, 1) }); got > 24 {
			t.Errorf("LeanMD(%d) allocates %v objects, ceiling 24", p, got)
		}
	}
}
