package sfc

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/parallel"
)

// keysGrain is the fixed chunk size of the parallel key sweep.
const keysGrain = 4096

// keyOrder returns the per-axis quantization bit width for d-dimensional
// coordinates: deep enough that distinct well-separated points get
// distinct lattice cells, shallow enough that d·order bits fit a uint64
// index (and the 2D/3D Hilbert codec limits).
func keyOrder(d int) int {
	switch d {
	case 1:
		return 32
	case 2:
		return 20
	case 3:
		return 16
	default:
		return 63 / d
	}
}

// mortonGeneric interleaves the low `order` bits of each axis into a
// single index, axis 0 least significant — the d-dimensional Z-order
// used for 4–8 dimensional coordinates, where no Hilbert codec exists.
func mortonGeneric(order int, q []uint32) uint64 {
	var d uint64
	for k := order - 1; k >= 0; k-- {
		for i := len(q) - 1; i >= 0; i-- {
			d = d<<1 | uint64(q[i]>>uint(k)&1)
		}
	}
	return d
}

// Key encodes the lattice cell q (one entry per axis, each below
// 2^order) as its curve index: the raw coordinate in 1 dimension, the
// Hilbert curve in 2 and 3, generic Morton in 4 and more. Task keys
// (Keys) and processor keys (topology.CurveOrder) both come from it.
func Key(order int, q []uint32) uint64 {
	switch len(q) {
	case 1:
		return uint64(q[0])
	case 2:
		return HilbertEncode2(order, q[0], q[1])
	case 3:
		return HilbertEncode3(order, q[0], q[1], q[2])
	default:
		return mortonGeneric(order, q)
	}
}

// Rank returns the indices of keys in (key, index) order: the curve walk
// over the points whose curve indices keys holds, coincident or
// colliding points in index order. Every geometric strategy and the
// machine's curve walk order their points with it.
func Rank(keys []uint64) []int32 {
	order := make([]int32, len(keys))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int {
		if c := cmp.Compare(keys[a], keys[b]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	return order
}

// Keys maps each coordinate row to its space-filling-curve index on a
// quantized integer lattice: the bounding box of all rows is scaled onto
// a 2^order-per-axis grid (round to nearest), and each cell is encoded
// with the Hilbert curve for 2 and 3 dimensions, the raw coordinate for
// 1, and generic Morton for 4–8 (Key). Rank sorts rows by (key, row)
// into the locality-preserving linear order the geometric strategies
// consume.
//
// Deterministic at any GOMAXPROCS: every key is a pure function of its
// row and the global bounding box, and rows are written to disjoint
// slots via parallel.For.
func Keys(coords [][]float64) ([]uint64, error) {
	n := len(coords)
	if n == 0 {
		return nil, fmt.Errorf("sfc: no coordinates")
	}
	d := len(coords[0])
	if d < 1 || d > 8 {
		return nil, fmt.Errorf("sfc: %d coordinate dimensions, want 1-8", d)
	}
	for v, row := range coords {
		if len(row) != d {
			return nil, fmt.Errorf("sfc: row %d has %d coordinates, want %d", v, len(row), d)
		}
	}
	var lo, hi [8]float64
	for i := 0; i < d; i++ {
		lo[i], hi[i] = coords[0][i], coords[0][i]
	}
	for _, row := range coords {
		for i, c := range row {
			if c < lo[i] {
				lo[i] = c
			}
			if c > hi[i] {
				hi[i] = c
			}
		}
	}
	order := keyOrder(d)
	side := float64(uint64(1)<<order - 1)
	var scale [8]float64
	for i := 0; i < d; i++ {
		if span := hi[i] - lo[i]; span > 0 {
			scale[i] = side / span
		}
	}

	keys := make([]uint64, n)
	parallel.For(n, keysGrain, func(from, to int) {
		var q [8]uint32
		for v := from; v < to; v++ {
			row := coords[v]
			for i := 0; i < d; i++ {
				q[i] = uint32((row[i]-lo[i])*scale[i] + 0.5)
			}
			keys[v] = Key(order, q[:d])
		}
	})
	return keys, nil
}
