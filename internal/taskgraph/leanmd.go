package taskgraph

import (
	"fmt"
	"math/rand"
)

// LeanMDCells is the fixed number of cell chares in the synthetic LeanMD
// workload: an 18 × 15 × 12 spatial decomposition, so that — as in the
// paper's LeanMD dumps — the total chare count is LeanMDCells + p.
const LeanMDCells = 18 * 15 * 12

var leanMDGrid = []int{18, 15, 12}

// halo26 is the cell stencil: one arm per pair of the 26-neighborhood,
// weighted by the surface the two cells share — a face 4×, an edge 2×, a
// corner 1×.
var halo26 = func() []arm {
	var arms []arm
	for dx := -1; dx <= 1; dx++ {
		for dy := -1; dy <= 1; dy++ {
			for dz := -1; dz <= 1; dz++ {
				if (dx*3+dy)*3+dz <= 0 {
					continue // the opposite arm lists this pair
				}
				zeros := 3 - dx*dx - dy*dy - dz*dz // 2 on a face, 1 on an edge, 0 at a corner
				arms = append(arms, arm{[]int{dx, dy, dz}, float64(int(1) << uint(zeros))})
			}
		}
	}
	return arms
}()

// LeanMD synthesizes a molecular-dynamics communication graph standing in
// for the paper's LeanMD load-database dumps (which are not public). It
// has 3240 + p chares:
//
//   - 3240 "cell" chares on an 18×15×12 spatial grid. Each cell exchanges
//     boundary atoms with the cells in its 26-neighborhood; face-sharing
//     neighbors carry 4× the bytes of corner-sharing ones (edge-sharing 2×),
//     matching the surface-area scaling of spatial decomposition.
//   - p "integrator" chares, one per target processor, each exchanging
//     light control traffic with a contiguous block of ≈3240/p cells.
//
// Cell computation load varies ±25 % pseudo-randomly around 1.0 (density
// fluctuations). Deterministic for a given seed.
func LeanMD(p int, msgBytes float64, seed int64) *Graph {
	return leanMD(p, msgBytes, seed, buildGrain)
}

// leanMD builds LeanMD's rows in chunks of grain. A cell's row is its
// halo by the lattice rule, then the integrators whose blocks hold it —
// ids above every cell, so the row stays sorted; an integrator's row is
// its block.
func leanMD(p int, msgBytes float64, seed int64, grain int) *Graph {
	if p < 1 {
		panic("taskgraph: LeanMD needs p >= 1")
	}
	const cells = LeanMDCells
	halo := newLattice("leanmd", leanMDGrid, false, halo26, msgBytes)
	rng := rand.New(rand.NewSource(seed))
	n := cells + p
	vwgt := make([]float64, n)
	for v := 0; v < cells; v++ {
		vwgt[v] = 0.75 + rng.Float64()*0.5
	}
	for v := cells; v < n; v++ {
		vwgt[v] = 0.25
	}
	per := cells / p
	if per < 1 {
		per = 1
	}
	// Integrator i holds cells [i·cells/p, +per), never past the last;
	// the blocks start in order, so the integrators holding cell c are
	// the run [first, end): end is the first whose block starts past c,
	// first the first whose block starts past c−per.
	ctl := msgBytes / 8
	integrators := func(c int) (first, end int) {
		if !(ctl > 0) {
			return 0, 0
		}
		if t := c - per + 1; t > 0 {
			first = (t*p + cells - 1) / cells
		}
		return first, min((c+1)*p+cells-1, p*cells) / cells
	}
	count := func(lo, hi int, deg []int32) {
		if top := min(hi, cells); lo < top {
			halo.count(lo, top, deg)
			for c := lo; c < top; c++ {
				first, end := integrators(c)
				deg[c-lo] += int32(end - first)
			}
		}
		if ctl > 0 {
			for v := max(lo, cells); v < hi; v++ {
				deg[v-lo] = int32(per)
			}
		}
	}
	fill := func(lo, hi int, xadj, adj []int32, wgt []float64) {
		if top := min(hi, cells); lo < top {
			halo.fill(lo, top, xadj, adj, wgt)
			for c := lo; c < top; c++ {
				first, end := integrators(c)
				at := int(xadj[c+1]) - (end - first)
				for i := first; i < end; i++ {
					adj[at], wgt[at] = int32(cells+i), ctl
					at++
				}
			}
		}
		for v := max(lo, cells); v < hi; v++ {
			row, block := int(xadj[v]), (v-cells)*cells/p
			for k := range int(xadj[v+1]) - row {
				adj[row+k], wgt[row+k] = int32(block+k), ctl
			}
		}
	}
	xadj, adj, wgt := fillRows(n, grain, count, fill)
	return FromCSR(fmt.Sprintf("leanmd(p=%d,seed=%d)", p, seed), vwgt, xadj, adj, wgt)
}

// LeanMDCoords returns the spatial coordinates of the LeanMD workload's
// chares for geometric partitioners: each cell at its grid position, each
// integrator at the centroid of its cell block. The layout matches
// LeanMD(p, ...) for any message size and seed.
func LeanMDCoords(p int) [][]float64 {
	coords := gridCoords(leanMDGrid, LeanMDCells+p)
	per := LeanMDCells / p
	if per < 1 {
		per = 1
	}
	for j := 0; j < p; j++ {
		lo := (j * LeanMDCells) / p
		hi := lo + per
		if hi > LeanMDCells {
			hi = LeanMDCells
		}
		cen := coords[LeanMDCells+j]
		for c := lo; c < hi; c++ {
			for d := 0; d < 3; d++ {
				cen[d] += coords[c][d]
			}
		}
		for d := range cen {
			cen[d] /= float64(hi - lo)
		}
	}
	return coords
}
