package taskgraph

import "fmt"

// arm is one arm of a grid stencil: every cell exchanges frac × msgBytes
// with the cell d away. A stencil lists each undirected pair once.
type arm struct {
	d    []int
	frac float64
}

var (
	faces1 = []arm{{[]int{1}, 1}}
	faces2 = []arm{{[]int{1, 0}, 1}, {[]int{0, 1}, 1}}
	faces3 = []arm{{[]int{1, 0, 0}, 1}, {[]int{0, 1, 0}, 1}, {[]int{0, 0, 1}, 1}}
	// Corner halos are a quarter of a face's.
	nine = []arm{faces2[0], faces2[1], {[]int{1, 1}, 0.25}, {[]int{1, -1}, 0.25}}
)

// cellID is the task id of the cell at c in a grid of extents ext:
// row-major, last extent fastest — x·ry + y in two dimensions,
// (x·ry + y)·rz + z in three. Graphs and coordinates both number through
// it, so a pattern's geometry matches its graph by construction.
func cellID(ext, c []int) int {
	id := 0
	for k, e := range ext {
		id = id*e + c[k]
	}
	return id
}

// eachCell calls visit with the id and coordinates of every cell of the
// grid, in id order. c is reused between calls.
func eachCell(ext []int, visit func(id int, c []int)) {
	c := make([]int, len(ext))
	for {
		visit(cellID(ext, c), c)
		k := len(ext) - 1
		for ; k >= 0; k-- {
			if c[k]++; c[k] < ext[k] {
				break
			}
			c[k] = 0
		}
		if k < 0 {
			return
		}
	}
}

// eachArm calls pair with every pair of stencil over the grid that
// AddEdge would keep, cell by cell in id order and arm by arm: arms that
// leave the grid wrap around when wrap is set and are dropped otherwise.
func eachArm(ext []int, wrap bool, stencil []arm, msgBytes float64, pair func(a, b int, w float64)) {
	to := make([]int, len(ext))
	eachCell(ext, func(id int, c []int) {
	arms:
		for _, a := range stencil {
			for k, e := range ext {
				x := c[k] + a.d[k]
				if wrap {
					x = (x + e) % e
				} else if x < 0 || x >= e {
					continue arms
				}
				to[k] = x
			}
			if v, w := cellID(ext, to), msgBytes*a.frac; keepEdge(id, v, w) {
				pair(id, v, w)
			}
		}
	})
}

// addStencil adds, on b's first vertices, the edges of stencil over the
// grid.
func addStencil(b *Builder, ext []int, wrap bool, stencil []arm, msgBytes float64) {
	eachArm(ext, wrap, stencil, msgBytes, func(a, v int, w float64) { b.AddEdge(a, v, w) })
}

// grid builds the pattern every lattice generator below is: one task per
// cell, its CSR filled in place by walking the stencil twice, to count
// and to place, in the order a Builder would have received the edges.
// Extents below 1 — below 3 with wrap, where a shorter ring would double
// its edges — panic.
func grid(name string, ext []int, wrap bool, stencil []arm, msgBytes float64) *Graph {
	least := 1
	if wrap {
		least = 3
	}
	n := 1
	for _, e := range ext {
		if e < least {
			panic(fmt.Sprintf("taskgraph: %s: extents must be >= %d", name, least))
		}
		n *= e
	}
	f := newCSRFill(n)
	eachArm(ext, wrap, stencil, msgBytes, f.count)
	f.alloc()
	eachArm(ext, wrap, stencil, msgBytes, f.place)
	return f.finish(name, ones(n))
}

// GridCoords returns the lattice position of every task of a grid pattern
// with these extents, one row per task — the geometry the
// coordinate-consuming strategies (RCB, SFC) pair with it.
func GridCoords(ext ...int) [][]float64 {
	n := 1
	for _, e := range ext {
		n *= e
	}
	return gridCoords(ext, n)
}

// gridCoords returns rows coordinate rows of len(ext) zeros, the first
// ones holding the grid's positions in id order.
func gridCoords(ext []int, rows int) [][]float64 {
	coords := flatRows(rows, len(ext))
	eachCell(ext, func(id int, c []int) {
		for k, x := range c {
			coords[id][k] = float64(x)
		}
	})
	return coords
}

// flatRows returns n rows of d zeros carved from one array. Each row's
// capacity is d, so an append to one row copies it instead of
// overwriting the next.
func flatRows(n, d int) [][]float64 {
	flat := make([]float64, n*d)
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = flat[i*d : (i+1)*d : (i+1)*d]
	}
	return rows
}

// Mesh2D builds the paper's principal benchmark pattern: rx × ry tasks in a
// logical 2D mesh, each exchanging msgBytes per iteration with its 4
// neighbors (3 on the boundary, 2 in the corners).
func Mesh2D(rx, ry int, msgBytes float64) *Graph {
	return grid(fmt.Sprintf("mesh2d(%d,%d)", rx, ry), []int{rx, ry}, false, faces2, msgBytes)
}

// Mesh3D builds a 3D Jacobi-like pattern (Table 1's workload): tasks in an
// rx × ry × rz grid, each exchanging msgBytes with its up-to-6 face
// neighbors per iteration.
func Mesh3D(rx, ry, rz int, msgBytes float64) *Graph {
	return grid(fmt.Sprintf("mesh3d(%d,%d,%d)", rx, ry, rz), []int{rx, ry, rz}, false, faces3, msgBytes)
}

// Ring builds n ≥ 3 tasks in a cycle, each exchanging msgBytes with both
// neighbors.
func Ring(n int, msgBytes float64) *Graph {
	return grid(fmt.Sprintf("ring(%d)", n), []int{n}, true, faces1, msgBytes)
}

// Torus2D builds an rx × ry pattern with wraparound neighbor exchange.
func Torus2D(rx, ry int, msgBytes float64) *Graph {
	return grid(fmt.Sprintf("torus2d(%d,%d)", rx, ry), []int{rx, ry}, true, faces2, msgBytes)
}

// Stencil9 builds an rx × ry 9-point stencil: each task exchanges
// msgBytes with its 4 face neighbors and msgBytes/4 with its 4 diagonal
// neighbors, as in high-order finite difference codes.
func Stencil9(rx, ry int, msgBytes float64) *Graph {
	return grid(fmt.Sprintf("stencil9(%d,%d)", rx, ry), []int{rx, ry}, false, nine, msgBytes)
}

// Wavefront builds the dependency-free communication footprint of an
// rx × ry wavefront sweep (as in Sweep3D): each task exchanges with its
// east and south neighbors only — Mesh2D's edges under its own name.
func Wavefront(rx, ry int, msgBytes float64) *Graph {
	return grid(fmt.Sprintf("wavefront(%d,%d)", rx, ry), []int{rx, ry}, false, faces2, msgBytes)
}

// AllToAll builds n tasks each exchanging msgBytes with every other task —
// the worst case for topology-aware mapping (no locality to exploit).
func AllToAll(n int, msgBytes float64) *Graph {
	if n < 2 {
		panic("taskgraph: AllToAll needs at least 2 tasks")
	}
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			b.AddEdge(i, j, msgBytes)
		}
	}
	return b.Build(fmt.Sprintf("alltoall(%d)", n))
}
