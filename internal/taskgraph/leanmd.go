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
	if p < 1 {
		panic("taskgraph: LeanMD needs p >= 1")
	}
	rng := rand.New(rand.NewSource(seed))
	n := LeanMDCells + p
	b := NewBuilder(n)
	for v := 0; v < LeanMDCells; v++ {
		b.SetVertexWeight(v, 0.75+rng.Float64()*0.5)
	}
	per := LeanMDCells / p
	if per < 1 {
		per = 1
	}
	// Size the builder for both edge families up front: grown append by
	// append, its arrays leave a few MB of garbage per graph.
	arms := 0
	eachArm(leanMDGrid, false, halo26, msgBytes, func(int, int, float64) { arms++ })
	b.Grow(arms + p*per)
	addStencil(b, leanMDGrid, false, halo26, msgBytes)
	// Integrator chares: light control traffic to a contiguous cell block.
	for i := 0; i < p; i++ {
		v := LeanMDCells + i
		b.SetVertexWeight(v, 0.25)
		lo := (i * LeanMDCells) / p
		hi := lo + per
		if hi > LeanMDCells {
			hi = LeanMDCells
		}
		for c := lo; c < hi; c++ {
			b.AddEdge(v, c, msgBytes/8)
		}
	}
	return b.Build(fmt.Sprintf("leanmd(p=%d,seed=%d)", p, seed))
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
