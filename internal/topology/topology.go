// Package topology models interconnection-network topologies for large
// parallel machines: N-dimensional meshes and tori (the primary networks of
// BlueGene/L and Cray XT3 class machines), hypercubes, k-ary fat-trees, and
// arbitrary graphs.
//
// A Topology exposes the number of nodes, adjacency, and shortest-path
// distance. Mesh, torus, and hypercube distances are closed-form; arbitrary
// graphs use cached breadth-first search. The mapping kernels read every
// distance through Dists, one oracle over the cached DistanceMatrix and
// those closed forms. Topologies that support
// deterministic routing also implement Router, which enumerates the exact
// sequence of directed links a message traverses; the network simulator and
// the machine emulator charge link loads along those routes.
package topology

import (
	"errors"
	"fmt"
)

// Topology is an undirected interconnection network on Nodes() vertices,
// numbered 0..Nodes()-1. Implementations must be safe for concurrent reads
// after construction.
type Topology interface {
	// Nodes returns the number of processors in the network.
	Nodes() int
	// Distance returns the length (in hops) of the shortest path between
	// nodes a and b. Distance(a, a) is 0.
	Distance(a, b int) int
	// Neighbors returns the nodes directly connected to a. The returned
	// slice must not be modified by the caller.
	Neighbors(a int) []int
	// Name returns a short human-readable description, e.g. "torus(8,8,8)".
	Name() string
}

// Router is implemented by topologies that provide a deterministic route
// between any pair of nodes.
type Router interface {
	Topology
	// Route appends to path the sequence of nodes visited travelling from
	// a to b, including both endpoints, and returns the extended slice.
	// The route has exactly Distance(a, b)+1 entries (minimal routing).
	Route(path []int, a, b int) []int
}

// Coordinated is implemented by topologies whose nodes live on an integer
// coordinate grid (meshes and tori).
type Coordinated interface {
	Topology
	// Dims returns the extent of each dimension in a new slice the caller
	// may modify.
	Dims() []int
	// Coord converts a node rank to grid coordinates, filling c, which must
	// have length len(Dims()).
	Coord(rank int, c []int)
	// Rank converts grid coordinates to a node rank.
	Rank(c []int) int
}

// ErrBadShape reports an invalid topology shape.
var ErrBadShape = errors.New("topology: shape dimensions must all be >= 1")

// checkNode panics if rank is outside [0, n).
func checkNode(rank, n int) {
	if rank < 0 || rank >= n {
		panic(fmt.Sprintf("topology: node %d out of range [0,%d)", rank, n))
	}
}

// MaxNodes caps the processor count of every machine this package (and
// internal/hiertopo on top of it) constructs. Constructors lay out a
// neighbour list per processor, so they compare the count a spec asks for
// with MaxNodes before they allocate anything.
const MaxNodes = 1 << 22

// volume returns the product of dims, or an error if any extent is < 1 or
// the product exceeds MaxNodes.
func volume(dims []int) (int, error) {
	v := mulAll(dims)
	switch {
	case len(dims) == 0 || v == 0:
		return 0, ErrBadShape
	case v > MaxNodes:
		return 0, fmt.Errorf("topology: shape %s too large (> %d nodes)", dimsString(dims), MaxNodes)
	}
	return v, nil
}

// dimsString formats dims as "(d0,d1,...)".
func dimsString(dims []int) string {
	s := "("
	for i, d := range dims {
		if i > 0 {
			s += ","
		}
		s += fmt.Sprint(d)
	}
	return s + ")"
}

// cloneInts returns a copy of s.
func cloneInts(s []int) []int {
	c := make([]int, len(s))
	copy(c, s)
	return c
}
