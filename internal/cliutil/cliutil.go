// Package cliutil parses the shared command-line specification syntax of
// the repository's tools: topology specs ("torus:8,8,8"), task-graph
// pattern specs ("mesh2d:16,16"), workload specs, and strategy names.
// Keeping the grammar in one place makes cmd/topomap, cmd/netsim, and
// cmd/lbsim accept identical vocabulary.
package cliutil

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/hiertopo"
	"repro/internal/taskgraph"
	"repro/internal/topology"
)

// TopologyNames lists the topology spec forms ParseAnyTopology accepts.
// The first three also route and are accepted by ParseTopology.
func TopologyNames() []string {
	return []string{"torus:D1,D2[,...]", "mesh:D1[,...]", "hypercube:D",
		"fattree:ARITY,LEVELS", "hier:pod:2/rack:4/node:8:torus-2x4"}
}

// ParseInts parses a comma-separated integer list.
func ParseInts(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad integer %q in %q", p, s)
		}
		out[i] = v
	}
	return out, nil
}

// ParseTopology parses a routing-capable topology spec:
//
//	torus:D1,D2[,...] | mesh:D1[,...] | hypercube:D
//
// Fat-trees and hierarchies are rejected here because they do not expose
// per-link routes; use ParseAnyTopology where routing is not required.
func ParseTopology(spec string) (topology.Router, error) {
	if strings.HasPrefix(spec, "hier:") {
		return nil, fmt.Errorf("cliutil: hierarchical topologies do not support per-link routing; use torus/mesh/hypercube")
	}
	kind, dims, err := splitSpec(spec)
	if err != nil {
		return nil, err
	}
	switch kind {
	case "torus":
		return topology.NewTorus(dims...)
	case "mesh":
		return topology.NewMesh(dims...)
	case "hypercube":
		if len(dims) != 1 {
			return nil, fmt.Errorf("cliutil: hypercube takes one dimension, got %v", dims)
		}
		return topology.NewHypercube(dims[0])
	case "fattree":
		return nil, fmt.Errorf("cliutil: fat-trees do not support per-link routing; use torus/mesh/hypercube")
	default:
		return nil, fmt.Errorf("cliutil: unknown topology kind %q (known: %s)",
			kind, strings.Join(TopologyNames(), ", "))
	}
}

// ParseAnyTopology additionally accepts fattree:K,L and hier:SPEC (a
// hierarchical machine, see internal/hiertopo) for metric-only use.
func ParseAnyTopology(spec string) (topology.Topology, error) {
	if rest, ok := strings.CutPrefix(spec, "hier:"); ok {
		return hiertopo.Parse(rest)
	}
	kind, dims, err := splitSpec(spec)
	if err != nil {
		return nil, err
	}
	if kind == "fattree" {
		if len(dims) != 2 {
			return nil, fmt.Errorf("cliutil: fattree takes arity,levels, got %v", dims)
		}
		return topology.NewFatTree(dims[0], dims[1])
	}
	return ParseTopology(spec)
}

// ParsePattern parses a task-graph pattern spec:
//
//	mesh2d:RX,RY | mesh3d:RX,RY,RZ | ring:N | alltoall:N |
//	torus2d:RX,RY | leanmd:P | random:N,M | rgg:N,DEG | stencil9:RX,RY |
//	transpose:N | bintree:N | butterfly:STAGES | wavefront:RX,RY
//
// msg sets the per-edge bytes; seed drives randomized generators. rgg is
// the cell-bucketed random geometric graph with target average degree
// DEG, cheap enough for million-task instances.
func ParsePattern(spec string, msg float64, seed int64) (*taskgraph.Graph, error) {
	kind, args, err := splitSpec(spec)
	if err != nil {
		return nil, err
	}
	// Bound the requested size before handing extents to the builders
	// (which panic on non-positive extents by contract). rgg's second
	// argument is an average degree, not a size factor.
	sizeArgs := args
	if kind == "rgg" && len(args) == 2 {
		sizeArgs = args[:1]
	}
	size := 1
	for _, a := range args {
		if a < 1 {
			return nil, fmt.Errorf("cliutil: pattern extent %d must be >= 1", a)
		}
	}
	for _, a := range sizeArgs {
		if size > 1<<22/a {
			return nil, fmt.Errorf("cliutil: pattern %q too large (> 2^22 tasks)", spec)
		}
		size *= a
	}
	switch {
	case kind == "mesh2d" && len(args) == 2:
		return taskgraph.Mesh2D(args[0], args[1], msg), nil
	case kind == "mesh3d" && len(args) == 3:
		return taskgraph.Mesh3D(args[0], args[1], args[2], msg), nil
	case kind == "ring" && len(args) == 1:
		return taskgraph.Ring(args[0], msg), nil
	case kind == "torus2d" && len(args) == 2:
		return taskgraph.Torus2D(args[0], args[1], msg), nil
	case kind == "alltoall" && len(args) == 1:
		return taskgraph.AllToAll(args[0], msg), nil
	case kind == "leanmd" && len(args) == 1:
		return taskgraph.LeanMD(args[0], msg, seed), nil
	case kind == "random" && len(args) == 2:
		return taskgraph.Random(args[0], args[1], msg/2, msg, seed), nil
	case kind == "rgg" && len(args) == 2:
		return taskgraph.RandomGeometricDeg(args[0], args[1], msg, seed), nil
	case kind == "stencil9" && len(args) == 2:
		return taskgraph.Stencil9(args[0], args[1], msg), nil
	case kind == "transpose" && len(args) == 1:
		return taskgraph.Transpose(args[0], msg), nil
	case kind == "bintree" && len(args) == 1:
		return taskgraph.BinaryTree(args[0], msg), nil
	case kind == "butterfly" && len(args) == 1:
		return taskgraph.Butterfly(args[0], msg), nil
	case kind == "wavefront" && len(args) == 2:
		return taskgraph.Wavefront(args[0], args[1], msg), nil
	default:
		return nil, fmt.Errorf("cliutil: unknown pattern %q", spec)
	}
}

// PatternCoords returns the task positions of a pattern spec for the
// coordinate-consuming strategies (sfc, rcb-sfc, and RCB partitioning):
// grid patterns get their lattice coordinates (matching the builders'
// id = x*ry + y numbering), ring a line coordinate, leanmd its 3D cell
// grid, and rgg the exact points RandomGeometricDeg connected for the
// same seed. Patterns without meaningful geometry (alltoall, transpose,
// bintree, butterfly, random) return nil — the strategies fall back to
// their graph-BFS order. Invalid specs also return nil; ParsePattern is
// the place that reports them.
func PatternCoords(spec string, seed int64) [][]float64 {
	kind, args, err := splitSpec(spec)
	if err != nil {
		return nil
	}
	for _, a := range args {
		if a < 1 {
			return nil
		}
	}
	grid2 := func(rx, ry int) [][]float64 {
		coords := make([][]float64, rx*ry)
		for x := 0; x < rx; x++ {
			for y := 0; y < ry; y++ {
				coords[x*ry+y] = []float64{float64(x), float64(y)}
			}
		}
		return coords
	}
	switch {
	case (kind == "mesh2d" || kind == "torus2d" || kind == "stencil9" || kind == "wavefront") && len(args) == 2:
		return grid2(args[0], args[1])
	case kind == "mesh3d" && len(args) == 3:
		rx, ry, rz := args[0], args[1], args[2]
		coords := make([][]float64, rx*ry*rz)
		for x := 0; x < rx; x++ {
			for y := 0; y < ry; y++ {
				for z := 0; z < rz; z++ {
					coords[(x*ry+y)*rz+z] = []float64{float64(x), float64(y), float64(z)}
				}
			}
		}
		return coords
	case kind == "ring" && len(args) == 1:
		coords := make([][]float64, args[0])
		for i := range coords {
			coords[i] = []float64{float64(i)}
		}
		return coords
	case kind == "leanmd" && len(args) == 1:
		return taskgraph.LeanMDCoords(args[0])
	case kind == "rgg" && len(args) == 2 && args[0] >= 2:
		return taskgraph.RandomGeometricCoords(args[0], seed)
	default:
		return nil
	}
}

func splitSpec(spec string) (string, []int, error) {
	kind, rest, ok := strings.Cut(spec, ":")
	if !ok {
		return "", nil, fmt.Errorf("cliutil: spec %q needs kind:params", spec)
	}
	args, err := ParseInts(rest)
	if err != nil {
		return "", nil, err
	}
	return kind, args, nil
}
