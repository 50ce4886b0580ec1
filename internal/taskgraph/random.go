package taskgraph

import (
	"fmt"
	"math"
	"math/rand"
)

// Random builds a connected random task graph on n vertices with roughly m
// edges: a random Hamiltonian cycle (for connectivity) plus m−n uniformly
// random extra edges. Edge weights are uniform in [minW, maxW); vertex
// weights are uniform in [0.5, 1.5). Deterministic for a given seed.
func Random(n, m int, minW, maxW float64, seed int64) *Graph {
	if n < 3 {
		panic("taskgraph: Random needs at least 3 vertices")
	}
	if m < n {
		m = n
	}
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(n)
	perm := rng.Perm(n)
	w := func() float64 { return minW + rng.Float64()*(maxW-minW) }
	for i := 0; i < n; i++ {
		b.AddEdge(perm[i], perm[(i+1)%n], w())
	}
	for e := 0; e < m-n; e++ {
		a, c := rng.Intn(n), rng.Intn(n)
		if a != c {
			b.AddEdge(a, c, w())
		}
	}
	for v := 0; v < n; v++ {
		b.SetVertexWeight(v, 0.5+rng.Float64())
	}
	return b.Build(fmt.Sprintf("random(n=%d,m=%d,seed=%d)", n, m, seed))
}

// RandomGeometric places n points uniformly in the unit square and connects
// pairs closer than radius, weighting edges inversely with distance — a
// spatial communication structure similar to domain-decomposed codes.
// The generated graph may be disconnected for small radii.
func RandomGeometric(n int, radius float64, msgBytes float64, seed int64) *Graph {
	if n < 2 {
		panic("taskgraph: RandomGeometric needs at least 2 vertices")
	}
	rng := rand.New(rand.NewSource(seed))
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = rng.Float64()
		ys[i] = rng.Float64()
	}
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			dx, dy := xs[i]-xs[j], ys[i]-ys[j]
			d := math.Sqrt(dx*dx + dy*dy)
			if d < radius {
				// Closer pairs exchange more data, never exceeding msgBytes.
				b.AddEdge(i, j, msgBytes*(1-d/radius))
			}
		}
	}
	return b.Build(fmt.Sprintf("rgg(n=%d,r=%g,seed=%d)", n, radius, seed))
}

// rggPoints draws the n unit-square points RandomGeometricDeg connects.
// The draw order (x then y, per point) is the generator's wire format:
// RandomGeometricCoords must return exactly these positions.
func rggPoints(n int, seed int64) (xs, ys []float64) {
	rng := rand.New(rand.NewSource(seed))
	xs = make([]float64, n)
	ys = make([]float64, n)
	for i := range xs {
		xs[i] = rng.Float64()
		ys[i] = rng.Float64()
	}
	return xs, ys
}

// RandomGeometricCoords returns the positions of the tasks of
// RandomGeometricDeg(n, ·, ·, seed), one [x, y] row per task — the
// geometry the coordinate-consuming strategies (RCB, SFC) pair with the
// rgg pattern.
func RandomGeometricCoords(n int, seed int64) [][]float64 {
	xs, ys := rggPoints(n, seed)
	coords := flatRows(n, 2)
	for i, c := range coords {
		c[0], c[1] = xs[i], ys[i]
	}
	return coords
}

// RandomGeometricDeg is RandomGeometric with the radius derived from a
// target average degree (expected degree of a point is π·r²·n) and a
// cell-bucketed neighbor search, so million-vertex instances build in
// O(n·deg) instead of O(n²) pair tests. Deterministic for a given seed.
func RandomGeometricDeg(n, avgDeg int, msgBytes float64, seed int64) *Graph {
	if n < 2 {
		panic("taskgraph: RandomGeometricDeg needs at least 2 vertices")
	}
	if avgDeg < 1 {
		panic("taskgraph: RandomGeometricDeg needs average degree >= 1")
	}
	xs, ys := rggPoints(n, seed)
	radius := math.Sqrt(float64(avgDeg+1) / (math.Pi * float64(n)))
	if radius > 1 {
		radius = 1
	}
	// Bucket points on a grid with cell side >= radius; every neighbor of a
	// point lies in its own or an adjacent cell.
	cells := int(1 / radius)
	if cells < 1 {
		cells = 1
	}
	cellOf := func(x float64) int {
		c := int(x * float64(cells))
		if c >= cells {
			c = cells - 1
		}
		return c
	}
	head := make([]int32, cells*cells)
	for i := range head {
		head[i] = -1
	}
	next := make([]int32, n)
	for i := 0; i < n; i++ {
		c := cellOf(ys[i])*cells + cellOf(xs[i])
		next[i] = head[c]
		head[c] = int32(i)
	}
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		cx, cy := cellOf(xs[i]), cellOf(ys[i])
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				nx, ny := cx+dx, cy+dy
				if nx < 0 || nx >= cells || ny < 0 || ny >= cells {
					continue
				}
				for k := head[ny*cells+nx]; k >= 0; k = next[k] {
					j := int(k)
					if j <= i {
						continue
					}
					ddx, ddy := xs[i]-xs[j], ys[i]-ys[j]
					d := math.Sqrt(ddx*ddx + ddy*ddy)
					if d < radius {
						b.AddEdge(i, j, msgBytes*(1-d/radius))
					}
				}
			}
		}
	}
	return b.Build(fmt.Sprintf("rgg(n=%d,deg=%d,seed=%d)", n, avgDeg, seed))
}
