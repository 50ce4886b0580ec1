package taskgraph

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/parallel"
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
	w := func() float64 { return minW + float64(rng.Float64()*(maxW-minW)) }
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
		// Float64 divides by 2⁶³, a product once inlined; the conversion keeps
		// it from fusing with the add.
		b.SetVertexWeight(v, 0.5+float64(rng.Float64()))
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
			d := math.Sqrt(dist2(dx, dy))
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
	parallel.For(n, buildGrain, func(lo, hi int) {
		for i, c := range coords[lo:hi] {
			c[0], c[1] = xs[lo+i], ys[lo+i]
		}
	})
	return coords
}

// RandomGeometricDeg is RandomGeometric with the radius derived from
// avgDeg and a cell-bucketed neighbor search, so million-vertex instances
// build in O(n·deg) instead of O(n²) pair tests. The radius r solves
// π·r²·n = avgDeg+1, so a point away from the square's border expects
// avgDeg+1 neighbours; points near the border lose part of their disc,
// and the mean degree lands between: 8.94 for n = 65 536, avgDeg = 8, and
// 2.0 for avgDeg = 1. Deterministic for a given seed.
func RandomGeometricDeg(n, avgDeg int, msgBytes float64, seed int64) *Graph {
	return randomGeometricDeg(n, avgDeg, msgBytes, seed, buildGrain)
}

// randomGeometricDeg fills each point's row from the cell buckets, in
// chunks of grain points. A pair's bytes come out the same from either
// end: a−b is −(b−a) exactly, so both ends square and sum the same
// numbers.
func randomGeometricDeg(n, avgDeg int, msgBytes float64, seed int64, grain int) *Graph {
	if n < 2 {
		panic("taskgraph: RandomGeometricDeg needs at least 2 vertices")
	}
	if avgDeg < 1 {
		panic("taskgraph: RandomGeometricDeg needs average degree >= 1")
	}
	if msgBytes < 0 {
		panic("taskgraph: negative edge weight")
	}
	xs, ys := rggPoints(n, seed)
	radius := math.Sqrt(float64(avgDeg+1) / (math.Pi * float64(n)))
	if radius > 1 {
		radius = 1
	}
	g := newRGGCells(xs, ys, radius, msgBytes)
	xadj, adj, wgt := fillRows(n, grain, g.count, g.fill)
	return FromCSR(fmt.Sprintf("rgg(n=%d,deg=%d,seed=%d)", n, avgDeg, seed), ones(n), xadj, adj, wgt)
}

// rggCells buckets an rgg's points on a grid of cells with side at least
// the radius, so every neighbour of a point lies in its own cell or one
// next to it. The buckets are one array in cell order, row-major: a
// point's three cells in one row of cells are one run of it, and the
// run's coordinates are read in order.
type rggCells struct {
	xs, ys      []float64 // the points, by id
	bx, by      []float64 // the points, by bucket
	id          []int32   // each bucketed point's id
	start       []int32   // cell c's points are bucket positions [start[c], start[c+1])
	cells       int       // cells along each side
	radius, msg float64
	// near is the squared distance below which a pair is an edge (see
	// rggThreshold).
	near float64
}

func newRGGCells(xs, ys []float64, radius, msgBytes float64) *rggCells {
	cells := max(int(1/radius), 1)
	g := &rggCells{xs: xs, ys: ys, cells: cells, radius: radius, msg: msgBytes,
		near: rggThreshold(radius, msgBytes), start: make([]int32, cells*cells+1)}
	for i := range xs {
		g.start[g.cell(i)+1]++
	}
	for c := 1; c < len(g.start); c++ {
		g.start[c] += g.start[c-1]
	}
	n := len(xs)
	g.bx, g.by, g.id = make([]float64, n), make([]float64, n), make([]int32, n)
	for i := range xs {
		c := g.cell(i)
		at := g.start[c]
		g.bx[at], g.by[at], g.id[at] = xs[i], ys[i], int32(i)
		g.start[c]++
	}
	copy(g.start[1:], g.start)
	g.start[0] = 0
	return g
}

// cellOf is the cell column (or row) of a coordinate.
func (g *rggCells) cellOf(x float64) int { return min(int(x*float64(g.cells)), g.cells-1) }

// cell is the cell of point i.
func (g *rggCells) cell(i int) int { return g.cellOf(g.ys[i])*g.cells + g.cellOf(g.xs[i]) }

// runs returns the bucket runs holding point i's candidates: rows y0 to
// y1 of cells, columns x0 to x1.
func (g *rggCells) runs(i int) (x0, x1, y0, y1 int) {
	cx, cy := g.cellOf(g.xs[i]), g.cellOf(g.ys[i])
	return max(cx-1, 0), min(cx+1, g.cells-1), max(cy-1, 0), min(cy+1, g.cells-1)
}

// count stores the lengths of the rows of points [lo, hi) in deg.
func (g *rggCells) count(lo, hi int, deg []int32) {
	for i := lo; i < hi; i++ {
		xi, yi := g.xs[i], g.ys[i]
		x0, x1, y0, y1 := g.runs(i)
		k := 0
		for cy := y0; cy <= y1; cy++ {
			a, b := g.start[cy*g.cells+x0], g.start[cy*g.cells+x1+1]
			bx, by := g.bx[a:b], g.by[a:b]
			by = by[:len(bx)]
			for t := range bx {
				k += b2i(dist2(xi-bx[t], yi-by[t]) < g.near)
			}
		}
		// The point is its own candidate, at distance 0: near whenever
		// anything is.
		if g.near > 0 {
			k--
		}
		deg[i-lo] = int32(k)
	}
}

// fill writes the rows of points [lo, hi), each sorted in place. Every
// candidate's bytes are stored while its row has room, and the cursor
// moves on only past an edge, so a non-edge's store is overwritten by the
// next edge's: a test a branch would mispredict a third of the time
// becomes a count. count agreed on each row's length, so no store leaves
// the row.
func (g *rggCells) fill(lo, hi int, xadj, adj []int32, wgt []float64) {
	for i := lo; i < hi; i++ {
		xi, yi := g.xs[i], g.ys[i]
		row, rw := adj[xadj[i]:xadj[i+1]], wgt[xadj[i]:xadj[i+1]]
		x0, x1, y0, y1 := g.runs(i)
		k := 0
		for cy := y0; cy <= y1; cy++ {
			a, b := g.start[cy*g.cells+x0], g.start[cy*g.cells+x1+1]
			bx, by, id := g.bx[a:b], g.by[a:b], g.id[a:b]
			by, id = by[:len(bx)], id[:len(bx)]
			for t := range bx {
				s := dist2(xi-bx[t], yi-by[t])
				if k < len(row) {
					// Closer pairs exchange more data, never exceeding msgBytes.
					row[k], rw[k] = id[t], g.msg*(1-math.Sqrt(s)/g.radius)
				}
				k += b2i(s < g.near) & b2i(int(id[t]) != i)
			}
		}
		insertionSortRow(row, rw)
	}
}

// b2i is 1 for true: a count of a test a branch would mispredict.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// dist2 is the squared distance of a pair from its coordinate
// differences. The conversions keep it from fusing into a multiply-add,
// so both passes of a build, and both ends of a pair, agree on it.
func dist2(dx, dy float64) float64 { return float64(dx*dx) + float64(dy*dy) }

// rggThreshold returns the least squared distance s at which a pair is
// no longer an edge of RandomGeometricDeg: √s no longer below radius, or
// msgBytes·(1−√s/radius) no longer above zero. Every step of that test
// is a correctly rounded operation monotone in s, so the pairs it keeps
// are exactly those with s below the threshold; a binary search over the
// bit patterns of the non-negative float64s, which order as the numbers
// do, finds it.
func rggThreshold(radius, msgBytes float64) float64 {
	edge := func(s float64) bool {
		d := math.Sqrt(s)
		return d < radius && msgBytes*(1-d/radius) > 0
	}
	lo, hi := uint64(0), math.Float64bits(math.Inf(1)) // edge(lo) may hold; edge(hi) does not
	if !edge(0) {
		return 0
	}
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if edge(math.Float64frombits(mid)) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return math.Float64frombits(hi)
}
