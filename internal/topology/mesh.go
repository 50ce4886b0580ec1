package topology

// Mesh is an N-dimensional mesh (grid without wraparound links). Shortest
// paths have the closed form Σ_i |a_i - b_i|.
type Mesh struct {
	*grid
	name string
}

var (
	_ Router      = (*Mesh)(nil)
	_ Coordinated = (*Mesh)(nil)
)

// NewMesh constructs a mesh with the given extents, e.g. NewMesh(8, 8, 8)
// for the 512-node 3D mesh used in the paper's Table 1.
func NewMesh(dims ...int) (*Mesh, error) {
	g, err := newGrid(dims, false)
	if err != nil {
		return nil, err
	}
	return &Mesh{grid: g, name: "mesh" + dimsString(dims)}, nil
}

// MustMesh is NewMesh that panics on error; for tests and fixed literals.
func MustMesh(dims ...int) *Mesh {
	m, err := NewMesh(dims...)
	if err != nil {
		panic(err)
	}
	return m
}

// Name implements Topology.
func (m *Mesh) Name() string { return m.name }

// Diameter returns Σ_i (d_i - 1).
func (m *Mesh) Diameter() int {
	d := 0
	for _, e := range m.dims {
		d += e - 1
	}
	return d
}

// AverageDistance returns the exact expected distance between two
// independent uniformly random nodes: Σ_i E|X_i - Y_i| with X_i, Y_i
// uniform on [0, d_i). For one dimension of extent d the expectation is
// (d² - 1) / (3d).
func (m *Mesh) AverageDistance() float64 {
	sum := 0.0
	for _, d := range m.dims {
		e := float64(d)
		sum += (float64(e*e) - 1) / (3 * e)
	}
	return sum
}
