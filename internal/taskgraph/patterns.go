package taskgraph

import (
	"fmt"
	"slices"

	"repro/internal/parallel"
)

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

// buildGrain is the fork grain of every pattern builder: rows, and
// coordinate rows, are filled in fixed chunks of this many, so a graph of
// at most one grain — every graph the service's default limits admit on
// its hot paths — builds inline, with no goroutine.
const buildGrain = 4096

// fillRows lays out an n-row CSR in two parallel passes over fixed
// chunks of grain rows: count(lo, hi, deg) stores the lengths of rows
// [lo, hi) in deg; after a prefix sum, fill(lo, hi, xadj, adj, wgt)
// writes each row v of [lo, hi) at adj[xadj[v]:xadj[v+1]], wgt parallel.
// Each row has one writer, no bytes are summed and the chunks depend only
// on n and grain, so the arrays are the same at any GOMAXPROCS.
func fillRows(n, grain int, count func(lo, hi int, deg []int32),
	fill func(lo, hi int, xadj, adj []int32, wgt []float64)) (xadj, adj []int32, wgt []float64) {
	xadj = make([]int32, n+1)
	parallel.For(n, grain, func(lo, hi int) { count(lo, hi, xadj[lo+1:hi+1]) })
	for v := 1; v <= n; v++ {
		xadj[v] += xadj[v-1]
	}
	adj = make([]int32, xadj[n])
	wgt = make([]float64, xadj[n])
	parallel.For(n, grain, func(lo, hi int) { fill(lo, hi, xadj, adj, wgt) })
	return xadj, adj, wgt
}

// cellAt sets c to the coordinates of cell id of a grid of extents ext.
// Cells are numbered row-major, last extent fastest — x·ry + y in two
// dimensions, (x·ry + y)·rz + z in three. Graphs and coordinates both
// number this way, so a pattern's geometry matches its graph by
// construction.
func cellAt(ext []int, id int, c []int) {
	for k := len(ext) - 1; k >= 0; k-- {
		c[k] = id % ext[k]
		id /= ext[k]
	}
}

// nextCell advances c to the coordinates of the following cell.
func nextCell(ext, c []int) {
	for k := len(ext) - 1; k >= 0; k-- {
		if c[k]++; c[k] < ext[k] {
			return
		}
		c[k] = 0
	}
}

// maxDims is the most dimensions a lattice has.
const maxDims = 3

// lattice is the one row rule every grid pattern builds by. Its steps
// are the stencil's signed offsets, each arm and its opposite, sorted by
// the id delta they make inside the grid. A cell's row is the steps that
// stay in the grid from its coordinates — or, with wrap, every step,
// brought back across the edges it left by. Without wrap a neighbour is
// the cell's id plus its delta, so the row comes out sorted; a row that
// wrapped is sorted in place. A stencil's offsets are -1, 0 or 1 along
// each extent, and with wrap the extents are at least 3, so a row's steps
// reach distinct cells: no row repeats a neighbour and FromCSR sums
// nothing.
type lattice struct {
	ext   []int
	span  [maxDims]int // cells one wrap along each extent skips: extent × stride
	wrap  bool
	steps []step
	// deg is the row length of a cell on the grid's faces given by its
	// masks (see faces): deg[low<<len(ext) | high].
	deg []int32
}

// step is one signed stencil offset: its id delta inside the grid, the
// extents it steps down (low) and up (high) along as bit masks, and its
// bytes.
type step struct {
	delta     int
	low, high uint8
	w         float64
}

// newLattice checks a grid's arguments, before anything forks: extents
// below 1 — below 3 with wrap, where a shorter ring would double its
// edges — and negative bytes panic. Arms whose bytes are not above zero
// are dropped, as AddEdge drops them.
func newLattice(name string, ext []int, wrap bool, stencil []arm, msgBytes float64) *lattice {
	least := 1
	if wrap {
		least = 3
	}
	for _, e := range ext {
		if e < least {
			panic(fmt.Sprintf("taskgraph: %s: extents must be >= %d", name, least))
		}
	}
	if len(ext) > maxDims {
		panic(fmt.Sprintf("taskgraph: %s: more than %d extents", name, maxDims))
	}
	if msgBytes < 0 {
		panic("taskgraph: negative edge weight")
	}
	dims := len(ext)
	l := &lattice{ext: ext, wrap: wrap, steps: make([]step, 0, 2*len(stencil)), deg: make([]int32, 1<<(2*dims))}
	var stride [maxDims]int
	s := 1
	for k := dims - 1; k >= 0; k-- {
		stride[k], l.span[k] = s, s*ext[k]
		s *= ext[k]
	}
	for _, a := range stencil {
		w := msgBytes * a.frac
		if !(w > 0) {
			continue
		}
		fwd := step{w: w}
		for k, d := range a.d {
			switch d {
			case -1:
				fwd.low |= 1 << k
			case 1:
				fwd.high |= 1 << k
			case 0:
			default:
				panic(fmt.Sprintf("taskgraph: %s: stencil offset %d is not -1, 0 or 1", name, d))
			}
			fwd.delta += d * stride[k]
		}
		l.steps = append(l.steps, fwd, step{-fwd.delta, fwd.high, fwd.low, w})
	}
	slices.SortStableFunc(l.steps, func(a, b step) int { return a.delta - b.delta })
	for m := range l.deg {
		low, high := uint8(m>>dims), uint8(m)&(1<<dims-1)
		for _, st := range l.steps {
			if wrap || st.low&low|st.high&high == 0 {
				l.deg[m]++
			}
		}
	}
	return l
}

// faces returns the masks of the extents along which the cell at c lies
// on the grid's low face (coordinate 0) and on its high face.
func (l *lattice) faces(c []int) (low, high uint8) {
	for k, e := range l.ext {
		if c[k] == 0 {
			low |= 1 << k
		}
		if c[k] == e-1 {
			high |= 1 << k
		}
	}
	return low, high
}

// row writes the row of cell id, on the faces low and high, to adj and
// wgt.
func (l *lattice) row(id int, low, high uint8, adj []int32, wgt []float64) {
	if low|high == 0 {
		// Inside the grid every step stays in it.
		for s, st := range l.steps {
			adj[s], wgt[s] = int32(id+st.delta), st.w
		}
		return
	}
	k, wrapped := 0, false
	for _, st := range l.steps {
		v := id + st.delta
		if down, up := st.low&low, st.high&high; down|up != 0 {
			if !l.wrap {
				continue
			}
			for i := range l.ext {
				if down&(1<<i) != 0 {
					v += l.span[i]
				}
				if up&(1<<i) != 0 {
					v -= l.span[i]
				}
			}
			wrapped = true
		}
		adj[k], wgt[k] = int32(v), st.w
		k++
	}
	if wrapped {
		insertionSortRow(adj[:k], wgt[:k])
	}
}

// count stores the lengths of the rows of cells [lo, hi) in deg.
func (l *lattice) count(lo, hi int, deg []int32) {
	var buf [maxDims]int
	c := buf[:len(l.ext)]
	cellAt(l.ext, lo, c)
	for id := lo; id < hi; id++ {
		low, high := l.faces(c)
		deg[id-lo] = l.deg[int(low)<<len(l.ext)|int(high)]
		nextCell(l.ext, c)
	}
}

// fill writes the rows of cells [lo, hi), each at the start of its place
// in adj.
func (l *lattice) fill(lo, hi int, xadj, adj []int32, wgt []float64) {
	var buf [maxDims]int
	c := buf[:len(l.ext)]
	cellAt(l.ext, lo, c)
	for id := lo; id < hi; id++ {
		low, high := l.faces(c)
		at := xadj[id]
		l.row(id, low, high, adj[at:], wgt[at:])
		nextCell(l.ext, c)
	}
}

// grid builds the pattern every lattice generator below is: one task per
// cell, each row by the lattice's rule, filled chunk by chunk.
func grid(name string, ext []int, wrap bool, stencil []arm, msgBytes float64) *Graph {
	n := 1
	for _, e := range ext {
		n *= e
	}
	l := newLattice(name, ext, wrap, stencil, msgBytes)
	xadj, adj, wgt := fillRows(n, buildGrain, l.count, l.fill)
	return FromCSR(name, ones(n), xadj, adj, wgt)
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
	n := 1
	for _, e := range ext {
		n *= e
	}
	parallel.For(n, buildGrain, func(lo, hi int) {
		var buf [maxDims]int
		c := buf[:0]
		if len(ext) <= maxDims {
			c = buf[:len(ext)]
		} else {
			c = make([]int, len(ext))
		}
		cellAt(ext, lo, c)
		for id := lo; id < hi; id++ {
			for k, x := range c {
				coords[id][k] = float64(x)
			}
			nextCell(ext, c)
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
	parallel.For(n, buildGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			rows[i] = flat[i*d : (i+1)*d : (i+1)*d]
		}
	})
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
