package topology

// Torus is an N-dimensional torus: a mesh with wraparound links in every
// dimension. BlueGene/L's primary network is a 3D torus. Shortest paths
// have the closed form Σ_i min(|a_i - b_i|, d_i - |a_i - b_i|).
type Torus struct {
	*grid
	name string
}

var (
	_ Router      = (*Torus)(nil)
	_ Coordinated = (*Torus)(nil)
)

// NewTorus constructs a torus with the given extents, e.g.
// NewTorus(16, 16, 16) for the 4K-node 3D torus discussed in the paper.
func NewTorus(dims ...int) (*Torus, error) {
	g, err := newGrid(dims, true)
	if err != nil {
		return nil, err
	}
	return &Torus{grid: g, name: "torus" + dimsString(dims)}, nil
}

// MustTorus is NewTorus that panics on error; for tests and fixed literals.
func MustTorus(dims ...int) *Torus {
	t, err := NewTorus(dims...)
	if err != nil {
		panic(err)
	}
	return t
}

// Name implements Topology.
func (t *Torus) Name() string { return t.name }

// Diameter returns Σ_i floor(d_i / 2).
func (t *Torus) Diameter() int {
	d := 0
	for _, e := range t.dims {
		d += e / 2
	}
	return d
}

// AverageDistance returns the exact expected distance between two
// independent uniformly random nodes. Per dimension of extent d the
// expectation is d/4 for even d and (d²-1)/(4d) for odd d; for the even
// case this recovers the paper's √p/2 (2D torus) and 3·∛p/4 (3D torus)
// formulas.
func (t *Torus) AverageDistance() float64 {
	sum := 0.0
	for _, d := range t.dims {
		e := float64(d)
		if d%2 == 0 {
			// e/4 compiles to a product by 0.25; the conversion keeps it
			// from fusing with the add.
			sum += float64(e / 4)
		} else {
			sum += (float64(e*e) - 1) / (4 * e)
		}
	}
	return sum
}
