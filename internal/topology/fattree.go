package topology

import "fmt"

// FatTree models a k-ary fat-tree with a given number of levels. Compute
// nodes are the k^levels leaves; switches are implicit. The distance
// between two leaves is 2·(levels − lcp) where lcp is the length of their
// common ancestor prefix in base-k — i.e. the number of switch hops up to
// the lowest common ancestor and back down.
//
// Because only compute nodes are mapping targets, Neighbors returns the
// k−1 siblings under the same edge switch (the nearest peers, at distance
// 2); FatTree therefore does not satisfy the "distance equals unweighted
// shortest path over Neighbors" invariant that grid topologies do, and it
// intentionally does not implement Router. The paper uses fat-trees only
// as the contrast case where contention is minor.
type FatTree struct {
	arity  int
	levels int
	n      int
	nbrs   [][]int
	name   string
}

var _ Topology = (*FatTree)(nil)

// NewFatTree constructs a fat-tree with the given switch arity and number
// of levels (1..10, arity 2..64; k^levels must stay within MaxNodes).
func NewFatTree(arity, levels int) (*FatTree, error) {
	if arity < 2 || arity > 64 {
		return nil, fmt.Errorf("topology: fat-tree arity %d out of range [2,64]", arity)
	}
	if levels < 1 || levels > 10 {
		return nil, fmt.Errorf("topology: fat-tree levels %d out of range [1,10]", levels)
	}
	n := powNodes(arity, levels)
	if n > MaxNodes {
		return nil, fmt.Errorf("topology: fat-tree too large (> %d leaves)", MaxNodes)
	}
	f := &FatTree{arity: arity, levels: levels, n: n,
		name: fmt.Sprintf("fattree(k=%d,l=%d)", arity, levels)}
	f.nbrs = make([][]int, n)
	for r := 0; r < n; r++ {
		base := r - r%arity
		nb := make([]int, 0, arity-1)
		for s := base; s < base+arity; s++ {
			if s != r {
				nb = append(nb, s)
			}
		}
		f.nbrs[r] = nb
	}
	return f, nil
}

// MustFatTree is NewFatTree that panics on error.
func MustFatTree(arity, levels int) *FatTree {
	f, err := NewFatTree(arity, levels)
	if err != nil {
		panic(err)
	}
	return f
}

// Nodes implements Topology.
func (f *FatTree) Nodes() int { return f.n }

// Name implements Topology.
func (f *FatTree) Name() string { return f.name }

// Arity returns the switch arity k.
func (f *FatTree) Arity() int { return f.arity }

// Levels returns the number of tree levels.
func (f *FatTree) Levels() int { return f.levels }

// Distance returns 2 × (levels − commonPrefix(a, b)).
func (f *FatTree) Distance(a, b int) int {
	checkNode(a, f.n)
	checkNode(b, f.n)
	if a == b {
		return 0
	}
	// Count how many leading base-k digits agree by repeatedly dividing
	// until the remaining prefixes match.
	up := 0
	for a != b {
		a /= f.arity
		b /= f.arity
		up++
	}
	return 2 * up
}

// Neighbors implements Topology: the k−1 leaves under the same edge switch.
func (f *FatTree) Neighbors(a int) []int {
	checkNode(a, f.n)
	return f.nbrs[a]
}

// Diameter returns 2 × levels.
func (f *FatTree) Diameter() int { return 2 * f.levels }
