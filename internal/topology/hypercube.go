package topology

import (
	"fmt"
	"math/bits"
)

// Hypercube is a d-dimensional binary hypercube on 2^d nodes. Two nodes are
// adjacent iff their ranks differ in exactly one bit; distance is Hamming
// distance. The paper notes that with P·log P wires such networks make
// contention a minor factor — the hypercube serves as that contrast case.
type Hypercube struct {
	dim  int
	n    int
	nbrs [][]int
	// labels[r] is r: a hypercube is its own partial cube, so its ranks
	// are the labels ClosedDists reads, as it reads a grid's.
	labels []uint64
	name   string
}

var _ Router = (*Hypercube)(nil)

// NewHypercube constructs a hypercube of the given dimension, 0 up to the
// one with MaxNodes nodes.
func NewHypercube(dim int) (*Hypercube, error) {
	if dim < 0 || dim >= bits.Len(MaxNodes) {
		return nil, fmt.Errorf("topology: hypercube dimension %d out of range [0,%d]", dim, bits.Len(MaxNodes)-1)
	}
	h := &Hypercube{dim: dim, n: 1 << dim, name: fmt.Sprintf("hypercube(%d)", dim)}
	h.nbrs = make([][]int, h.n)
	h.labels = make([]uint64, h.n)
	for r := 0; r < h.n; r++ {
		h.labels[r] = uint64(r)
		nb := make([]int, dim)
		for i := 0; i < dim; i++ {
			nb[i] = r ^ (1 << i)
		}
		h.nbrs[r] = nb
	}
	return h, nil
}

// MustHypercube is NewHypercube that panics on error.
func MustHypercube(dim int) *Hypercube {
	h, err := NewHypercube(dim)
	if err != nil {
		panic(err)
	}
	return h
}

// Nodes implements Topology.
func (h *Hypercube) Nodes() int { return h.n }

// Name implements Topology.
func (h *Hypercube) Name() string { return h.name }

// Dim returns the hypercube dimension (log2 of the node count).
func (h *Hypercube) Dim() int { return h.dim }

// Distance returns the Hamming distance between a and b.
func (h *Hypercube) Distance(a, b int) int {
	checkNode(a, h.n)
	checkNode(b, h.n)
	return bits.OnesCount32(uint32(a ^ b))
}

// Neighbors implements Topology.
func (h *Hypercube) Neighbors(a int) []int {
	checkNode(a, h.n)
	return h.nbrs[a]
}

// Route implements Router: correct differing bits from lowest to highest
// (e-cube routing).
func (h *Hypercube) Route(path []int, a, b int) []int {
	checkNode(a, h.n)
	checkNode(b, h.n)
	path = append(path, a)
	cur := a
	for i := 0; i < h.dim; i++ {
		if (cur^b)&(1<<i) != 0 {
			cur ^= 1 << i
			path = append(path, cur)
		}
	}
	return path
}

// Diameter returns the hypercube dimension.
func (h *Hypercube) Diameter() int { return h.dim }

// AverageDistance returns dim/2, the expected Hamming distance between two
// independent uniformly random ranks.
func (h *Hypercube) AverageDistance() float64 { return float64(h.dim) / 2 }
