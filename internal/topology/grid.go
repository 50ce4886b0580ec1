package topology

// grid holds machinery shared by Mesh and Torus: row-major rank/coordinate
// conversion, the closed-form distance and precomputed neighbor lists.
type grid struct {
	dims    []int
	strides []int // strides[i] = product of dims[i+1:]
	n       int
	nbrs    [][]int // per-node neighbor lists, built once
	// coords[r*len(ext):(r+1)*len(ext)] are rank r's coordinates, built
	// once so that Coord, Distance and the Dists oracle read a table
	// instead of dividing by strides.
	coords []int32
	ext    []int32 // dims as int32, beside coords
	wrap   bool    // torus: every dimension wraps around
}

func newGrid(dims []int, wrap bool) (*grid, error) {
	n, err := volume(dims)
	if err != nil {
		return nil, err
	}
	nd := len(dims)
	g := &grid{dims: cloneInts(dims), n: n, wrap: wrap}
	g.strides = make([]int, nd)
	g.ext = make([]int32, nd)
	s := 1
	for i := nd - 1; i >= 0; i-- {
		g.strides[i] = s
		g.ext[i] = int32(dims[i])
		s *= dims[i]
	}
	g.coords = make([]int32, n*nd)
	for r := 0; r < n; r++ {
		rem := r
		for i, st := range g.strides {
			g.coords[r*nd+i] = int32(rem / st)
			rem %= st
		}
	}
	g.buildNeighbors()
	return g, nil
}

func (g *grid) Nodes() int  { return g.n }
func (g *grid) Dims() []int { return cloneInts(g.dims) }

// Coord converts rank to coordinates in row-major order.
func (g *grid) Coord(rank int, c []int) {
	checkNode(rank, g.n)
	nd := len(g.ext)
	for i, x := range g.coords[rank*nd : rank*nd+nd] {
		c[i] = int(x)
	}
}

// Rank converts coordinates to a node rank. Coordinates must be in range.
func (g *grid) Rank(c []int) int {
	r := 0
	for i, ci := range c {
		if ci < 0 || ci >= g.dims[i] {
			panic("topology: coordinate out of range")
		}
		r += ci * g.strides[i]
	}
	return r
}

func (g *grid) Neighbors(a int) []int {
	checkNode(a, g.n)
	return g.nbrs[a]
}

// Distance returns the Manhattan distance between a and b on a mesh, and
// the wraparound one on a torus.
func (g *grid) Distance(a, b int) int {
	checkNode(a, g.n)
	checkNode(b, g.n)
	return g.dist(a, b)
}

// dist is the closed form read off the coordinate table: Σ_i |a_i − b_i|
// on a mesh, Σ_i min(|a_i − b_i|, d_i − |a_i − b_i|) on a torus.
// Written to stay under the inlining budget, so that Dists.Dist is the
// one call a distance costs.
func (g *grid) dist(a, b int) int {
	nd := len(g.ext)
	a, b = a*nd, b*nd
	s := int32(0)
	for i, e := range g.ext {
		d := g.coords[a+i] - g.coords[b+i]
		if d < 0 {
			d = -d
		}
		if g.wrap && e-d < d {
			d = e - d
		}
		s += d
	}
	return int(s)
}

// buildNeighbors materializes neighbor lists. With wrap, each dimension of
// extent >= 3 contributes wraparound links; extent-2 dimensions contribute a
// single link (avoiding a duplicate edge), and extent-1 dimensions none.
func (g *grid) buildNeighbors() {
	g.nbrs = make([][]int, g.n)
	c := make([]int, len(g.dims))
	for r := 0; r < g.n; r++ {
		g.Coord(r, c)
		var nb []int
		for i, d := range g.dims {
			if d == 1 {
				continue
			}
			lo, hi := c[i]-1, c[i]+1
			if g.wrap && d > 2 {
				lo, hi = (c[i]-1+d)%d, (c[i]+1)%d
			}
			if lo >= 0 && lo != c[i] {
				nb = append(nb, r+(lo-c[i])*g.strides[i])
			}
			if hi < d && hi != c[i] && hi != lo {
				nb = append(nb, r+(hi-c[i])*g.strides[i])
			}
		}
		g.nbrs[r] = nb
	}
}

// Route implements Router for Mesh and Torus, appending the
// dimension-ordered (e-cube) route from a to b: correct coordinates one
// dimension at a time, lowest dimension first. On tori the shorter
// direction (ties broken toward increasing coordinate) is taken.
func (g *grid) Route(path []int, a, b int) []int {
	checkNode(a, g.n)
	checkNode(b, g.n)
	// Coordinate scratch lives on the stack for the dimensionalities that
	// occur in practice: routing is a per-message hot path in netsim, and
	// heap coordinates here would be the simulator's only steady-state
	// allocation. The grid itself stays immutable so concurrent routing
	// from a parallel sweep needs no locks.
	var caBuf, cbBuf [8]int
	var ca, cb []int
	if len(g.dims) <= len(caBuf) {
		ca, cb = caBuf[:len(g.dims)], cbBuf[:len(g.dims)]
	} else {
		ca = make([]int, len(g.dims))
		cb = make([]int, len(g.dims))
	}
	g.Coord(a, ca)
	g.Coord(b, cb)
	path = append(path, a)
	for i := range g.dims {
		d := g.dims[i]
		for ca[i] != cb[i] {
			step := 1
			if !g.wrap || d <= 2 {
				if cb[i] < ca[i] {
					step = -1
				}
			} else {
				fwd := (cb[i] - ca[i] + d) % d
				if fwd > d-fwd {
					step = -1
				}
			}
			ca[i] = (ca[i] + step + d) % d
			path = append(path, g.Rank(ca))
		}
	}
	return path
}
