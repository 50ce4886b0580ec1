package topology

import (
	"math/bits"

	"repro/internal/sfc"
)

// CurveOrder returns a permutation of processor ranks that walks the
// machine along a space-filling curve: ranks adjacent in the returned
// order are near each other in the topology, so assigning consecutive
// runs of curve-ordered tasks to consecutive entries yields locality on
// both sides (the Deveci et al. geometric mapping construction).
//
// Coordinated topologies with 2 or 3 dimensions are walked in Hilbert
// order over their coordinates (non-power-of-two extents are handled by
// sorting the existing ranks by curve index, which preserves the curve's
// relative order on any sub-box). One-dimensional machines are walked
// along their axis; higher-dimensional grids fall back to a generalized
// Morton walk. Everything else (hypercubes, fat-trees) keeps rank order,
// which already clusters subcubes and subtrees.
//
// Deterministic: the result depends only on the topology's coordinates.
func CurveOrder(t Topology) []int32 {
	p := t.Nodes()
	co, ok := t.(Coordinated)
	if !ok {
		order := make([]int32, p)
		for q := range order {
			order[q] = int32(q)
		}
		return order
	}
	dims := co.Dims()
	maxExt := 0
	for _, d := range dims {
		if d > maxExt {
			maxExt = d
		}
	}
	k := bits.Len(uint(maxExt - 1)) // lattice order: side 2^k covers every extent
	keys := make([]uint64, p)
	buf := make([]int, len(dims))
	cell := make([]uint32, len(dims))
	for q := 0; q < p; q++ {
		co.Coord(q, buf)
		for i, c := range buf {
			cell[i] = uint32(c)
		}
		keys[q] = sfc.Key(k, cell)
	}
	return sfc.Rank(keys)
}
