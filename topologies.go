package topomap

import (
	"repro/internal/hiertopo"
	"repro/internal/topology"
)

// Topology is an interconnection network: node count, adjacency, and
// shortest-path distance.
type Topology = topology.Topology

// Router is a Topology with deterministic per-link routing (required by
// the network simulator and the machine emulator).
type Router = topology.Router

// Mesh is an N-dimensional mesh topology.
type Mesh = topology.Mesh

// Torus is an N-dimensional torus topology (BlueGene/L's network).
type Torus = topology.Torus

// Hypercube is a binary hypercube topology.
type Hypercube = topology.Hypercube

// FatTree is a k-ary fat-tree topology.
type FatTree = topology.FatTree

// GraphTopology is an arbitrary network given by explicit edges.
type GraphTopology = topology.Graph

// NewMesh constructs an N-dimensional mesh, e.g. NewMesh(8, 8, 8).
func NewMesh(dims ...int) (*Mesh, error) { return topology.NewMesh(dims...) }

// NewTorus constructs an N-dimensional torus, e.g. NewTorus(16, 16, 16).
func NewTorus(dims ...int) (*Torus, error) { return topology.NewTorus(dims...) }

// NewHypercube constructs a hypercube of the given dimension.
func NewHypercube(dim int) (*Hypercube, error) { return topology.NewHypercube(dim) }

// NewFatTree constructs a k-ary fat-tree with the given levels.
func NewFatTree(arity, levels int) (*FatTree, error) { return topology.NewFatTree(arity, levels) }

// NewGraphTopology constructs an arbitrary topology from undirected edges.
// The graph must be connected: every pair of processors needs a distance.
func NewGraphTopology(n int, edges [][2]int) (*GraphTopology, error) {
	return topology.NewGraph(n, edges)
}

// MeanDistance returns the exact mean internode distance of t.
func MeanDistance(t Topology) float64 { return topology.MeanDistance(t) }

// Diameter returns the largest pairwise distance of t.
func Diameter(t Topology) int { return topology.Diameter(t) }

// Hierarchy is a hierarchical machine description (pods of racks of
// nodes of leaf networks) with a composite distance metric: intra-leaf
// pairs pay the exact leaf distance, cross-leaf pairs pay the cost of
// the outermost level their ranks diverge at (default 10× per level
// outward). Usable anywhere a Topology is accepted; pair it with the
// HierMap strategy for two-phase constrained mapping.
type Hierarchy = hiertopo.Hierarchy

// HierarchyLevel describes one level of a Hierarchy, outermost first.
type HierarchyLevel = hiertopo.Level

// ParseHierarchy parses the compact spec, e.g.
// "pod:2/rack:4/node:8:torus-2x4" (levels outermost first, optional
// "@cost" suffix per level, optional leaf topology bound to the
// innermost segment — see internal/hiertopo).
func ParseHierarchy(spec string) (*Hierarchy, error) { return hiertopo.Parse(spec) }

// NewHierarchy constructs a hierarchy from explicit levels and a leaf
// topology spec ("" binds single-processor leaves).
func NewHierarchy(levels []HierarchyLevel, leafSpec string) (*Hierarchy, error) {
	return hiertopo.New(levels, leafSpec)
}

// Dragonfly is the modern hierarchical low-diameter topology (groups of
// fully connected routers joined by global links).
type Dragonfly = topology.Dragonfly

// NewDragonfly constructs the balanced Kim–Dally dragonfly with the given
// routers per group and global links per router (groups = a·h + 1).
func NewDragonfly(routersPerGroup, globalPerRouter int) (*Dragonfly, error) {
	return topology.NewDragonfly(routersPerGroup, globalPerRouter)
}
