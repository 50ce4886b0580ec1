package topology

import "math/bits"

// distKind selects where a Dists answers from.
type distKind uint8

const (
	distGeneric distKind = iota // Topology.Distance
	distMatrix                  // the cached DistanceMatrix
	distGrid                    // a mesh's or torus's coordinate table
	distLabel                   // partial-cube labels: a grid's, or a hypercube's ranks
)

// Dists is the mapping kernels' one distance oracle. It is chosen once per
// kernel call and answers from the cached DistanceMatrix when one is
// materialized, otherwise from the machine's own closed form: the
// popcount of two partial-cube labels on a mesh or even torus whose labels
// fit a word (see grid.buildLabels) and on a hypercube (whose labels are
// its ranks), the coordinate table of any other mesh or torus, and
// Topology.Distance for everything else (fat-trees, graphs, hierarchies,
// adapters). Every source returns the integers Topology.Distance returns,
// so a kernel's result never depends on which one it got. A Dists is a
// value: building and querying one allocates nothing.
type Dists struct {
	md   []int32 // the matrix's cells, for distMatrix
	n    int     // the matrix's width
	kind distKind
	m    *DistanceMatrix
	g    *grid
	l    []uint64 // the machine's labels, for distLabel
	t    Topology
}

// NewDists returns t's oracle: the cached matrix when one fits under the
// cap (see CachedDistances), ClosedDists(t) otherwise.
func NewDists(t Topology) Dists {
	if m := CachedDistances(t); m != nil {
		return Dists{md: m.d, n: m.n, kind: distMatrix, m: m, t: t}
	}
	return ClosedDists(t)
}

// ClosedDists returns t's oracle without the matrix: for the O(n+|E|)
// paths that must never materialize p² cells, whatever the cap.
func ClosedDists(t Topology) Dists {
	switch t := t.(type) {
	case *Torus:
		return gridDists(t.grid, t)
	case *Mesh:
		return gridDists(t.grid, t)
	case *Hypercube:
		return Dists{kind: distLabel, l: t.labels, t: t}
	}
	return Dists{t: t}
}

// gridDists is a grid's oracle: its labels when it has them, its
// coordinate table otherwise.
func gridDists(g *grid, t Topology) Dists {
	if g.labels != nil {
		return Dists{kind: distLabel, l: g.labels, t: t}
	}
	return Dists{kind: distGrid, g: g, t: t}
}

// Matrix returns the matrix the oracle answers from, or nil. Only
// SwapDelta reads it: its matrix loops hoist Matrix().Row, where a loop
// over Dist measured slower (DESIGN §6).
func (d *Dists) Matrix() *DistanceMatrix { return d.m }

// Labels returns the partial-cube labels the oracle answers from, or nil:
// Dist(a, b) is bits.OnesCount64(l[a] ^ l[b]). Only SwapDelta reads them:
// its label loops hoist the two processors' labels, so an edge costs one
// load and no call (DESIGN §6). It inlines; CI checks that it does in
// refine.go.
func (d *Dists) Labels() []uint64 { return d.l }

// Dist returns the hop distance between processors a and b. It inlines:
// the matrix cell is read in the caller's loop, and every other source is
// one call to closed. Keep it under the inliner's budget; CI checks that
// the kernels inline it.
func (d *Dists) Dist(a, b int) int {
	if d.kind == distMatrix {
		return int(d.md[a*d.n+b])
	}
	return d.closed(a, b)
}

// closed answers Dist from every source but the matrix.
func (d *Dists) closed(a, b int) int {
	switch d.kind {
	case distLabel:
		return bits.OnesCount64(d.l[a] ^ d.l[b])
	case distGrid:
		return d.g.dist(a, b)
	}
	//lint:ignore hotalloc fat-trees, hierarchies and adapters answer from their own arithmetic, graphs from lazily built rows; zero allocations at steady state, pinned by TestMultilevelProposeZeroAlloc and TestSessionBatchAllocs
	return d.t.Distance(a, b)
}
