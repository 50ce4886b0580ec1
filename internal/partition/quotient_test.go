package partition

import (
	"testing"

	"repro/internal/taskgraph"
)

// tiles is a stencil's partition into square tiles of side s, numbered
// row-major: the shape a good partitioner returns for a grid.
func tiles(rx, ry, s int) *Result {
	r := &Result{Assign: make([]int, rx*ry), K: (rx / s) * (ry / s)}
	for v := range r.Assign {
		r.Assign[v] = (v/ry/s)*(ry/s) + v%ry/s
	}
	return r
}

// cells is an rgg graph's partition into the c×c cells of the unit square
// its points fall in.
func cells(n int, seed int64, c int) *Result {
	r := &Result{Assign: make([]int, n), K: c * c}
	for v, xy := range taskgraph.RandomGeometricCoords(n, seed) {
		r.Assign[v] = int(xy[1]*float64(c))*c + int(xy[0]*float64(c))
	}
	return r
}

// BenchmarkQuotient times Quotient on lib-scale's two large graph shapes
// under the partitions a mapper would hand it.
func BenchmarkQuotient(b *testing.B) {
	for _, c := range []struct {
		name string
		g    *taskgraph.Graph
		r    *Result
	}{
		{"stencil9:512,512/k=4096", taskgraph.Stencil9(512, 512, 1000), tiles(512, 512, 8)},
		{"rgg:65536,8/k=1024", taskgraph.RandomGeometricDeg(65536, 8, 1000, 1), cells(65536, 1, 32)},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Quotient(c.g, c.r); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestQuotientAllocsFlat: Quotient allocates per call, not per fine
// vertex — the same count for a stencil 4× larger under the same tiling,
// and under the race detector at most a ceiling far below its 4 096
// vertices.
func TestQuotientAllocsFlat(t *testing.T) {
	allocs := func(side int) float64 {
		g, r := taskgraph.Stencil9(side, side, 1000), tiles(side, side, side/2)
		return testing.AllocsPerRun(100, func() {
			if _, err := Quotient(g, r); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(32), allocs(64)
	if small != large && !raceEnabled {
		t.Errorf("Quotient allocates %v objects at 32×32 and %v at 64×64, want the same", small, large)
	}
	if large > 32 {
		t.Errorf("Quotient allocates %v objects at 64×64, ceiling 32", large)
	}
}
