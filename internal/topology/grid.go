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
	// labels[r] is rank r's partial-cube label, whose popcount distance to
	// another rank's is their hop distance; nil unless the grid has labels
	// that fit one word (see buildLabels).
	labels []uint64
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
	g.buildLabels()
	return g, nil
}

// buildLabels fills g.labels when the grid is a partial cube whose labels
// fit one uint64. A path of k nodes embeds in the (k−1)-cube by its
// thermometer code (x ↦ the low x bits set), an even ring of 2m nodes in
// the m-cube (x ↦ the low x bits for x ≤ m, the top 2m − x of the m bits
// after), and an extent of 1 takes no bits. A product of partial cubes is
// one, its dimensions' codes side by side, so the Hamming distance of two
// labels is the hop distance of their ranks. An odd ring is not a partial
// cube, so a torus with an odd extent above 1 keeps the coordinate form,
// as does every shape needing more than 64 bits.
func (g *grid) buildLabels() {
	width := 0
	for _, e := range g.dims {
		if g.wrap && e > 2 && e%2 != 0 {
			return
		}
		if width += g.labelBits(e); width > 64 {
			return
		}
	}
	// codes[base[i]+x] is coordinate x's code in dimension i, shifted to
	// that dimension's bits. A shift by 64 is 0 in Go, so a 64-bit code
	// needs no special case.
	nd := len(g.dims)
	base := make([]int, nd)
	codes := make([]uint64, 0, 2*width+nd) // Σ extents: ≤ 2 per bit, 1 per dimension
	off := 0
	for i, e := range g.dims {
		base[i] = len(codes)
		w := g.labelBits(e)
		full := uint64(1)<<w - 1
		for x := 0; x < e; x++ {
			c := uint64(1)<<x - 1
			if x > w {
				c = full &^ (uint64(1)<<(x-w) - 1)
			}
			codes = append(codes, c<<off)
		}
		off += w
	}
	g.labels = make([]uint64, g.n)
	for r := range g.labels {
		var l uint64
		for i, x := range g.coords[r*nd : r*nd+nd] {
			l |= codes[base[i]+int(x)]
		}
		g.labels[r] = l
	}
}

// labelBits is the label width of a dimension of extent e: e − 1 for a
// path, e/2 for a ring of three or more (even, once buildLabels checked).
func (g *grid) labelBits(e int) int {
	if g.wrap && e > 2 {
		return e / 2
	}
	return e - 1
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
// The lists are capped rows of one flat array, sized for the largest
// degree, so construction makes two allocations, not one per node.
func (g *grid) buildNeighbors() {
	g.nbrs = make([][]int, g.n)
	deg := 0
	for _, d := range g.dims {
		deg += min(d-1, 2)
	}
	flat := make([]int, 0, g.n*deg)
	c := make([]int, len(g.dims))
	for r := 0; r < g.n; r++ {
		g.Coord(r, c)
		nb := flat[len(flat):len(flat)]
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
		g.nbrs[r] = nb[:len(nb):len(nb)]
		flat = flat[:len(flat)+len(nb)]
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
