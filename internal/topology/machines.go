package topology

import (
	"fmt"
	"math/bits"
)

// MachineRow is everything the spec grammars record about one kind of
// machine. The tools' -topo vocabulary and topomapd's topology field
// ("torus:4,4", internal/cliutil), the leaf of a hierarchy ("torus-4x4",
// internal/hiertopo), their help and error texts and the row tests all
// read machineTable; a new machine kind on the wire is one new row. The
// two grammars keep only their separators and the checks that are theirs.
type MachineRow struct {
	Kind string
	// Usage is the flat spec form.
	Usage string
	// Arity is the number of dimensions; 0 takes one or more.
	Arity int
	// Routes marks a kind whose machines implement Router.
	Routes bool
	// Nodes counts the processors of a shape that passed Check without
	// constructing it: 0 for an extent below 1, MaxNodes+1 once the count
	// passes MaxNodes. New refuses both and says why.
	Nodes func(dims []int) int
	// New constructs the machine of a shape that passed Check.
	New func(dims []int) (Topology, error)
}

var machineTable = []MachineRow{
	{Kind: "torus", Usage: "torus:D1,D2[,...]", Routes: true, Nodes: mulAll,
		New: func(d []int) (Topology, error) { return NewTorus(d...) }},
	{Kind: "mesh", Usage: "mesh:D1[,...]", Routes: true, Nodes: mulAll,
		New: func(d []int) (Topology, error) { return NewMesh(d...) }},
	{Kind: "hypercube", Usage: "hypercube:D", Arity: 1, Routes: true,
		Nodes: func(d []int) int { return powNodes(2, d[0]) },
		New:   func(d []int) (Topology, error) { return NewHypercube(d[0]) }},
	{Kind: "fattree", Usage: "fattree:ARITY,LEVELS", Arity: 2,
		Nodes: func(d []int) int { return powNodes(d[0], d[1]) },
		New:   func(d []int) (Topology, error) { return NewFatTree(d[0], d[1]) }},
}

// Machines returns the rows in listing order. The slice is shared: read
// it, do not write it.
func Machines() []MachineRow { return machineTable }

// FindMachine resolves a kind to its row.
func FindMachine(kind string) (MachineRow, bool) {
	for _, r := range machineTable {
		if r.Kind == kind {
			return r, true
		}
	}
	return MachineRow{}, false
}

// Check reports a dimension list of the wrong length for the row.
func (r MachineRow) Check(dims []int) error {
	if r.Arity != 0 && len(dims) != r.Arity {
		return fmt.Errorf("topology: want %s, got %d dimensions", r.Usage, len(dims))
	}
	return nil
}

// mulNodes returns n·d as a processor count: 0 if either factor is below
// 1, and MaxNodes+1 once the product passes MaxNodes. Both are absorbing,
// so a product of extents needs no overflow check of its own.
func mulNodes(n, d int) int {
	switch {
	case n < 1 || d < 1:
		return 0
	case d > MaxNodes/n:
		return MaxNodes + 1
	}
	return n * d
}

func mulAll(dims []int) int {
	n := 1
	for _, d := range dims {
		n = mulNodes(n, d)
	}
	return n
}

// powNodes returns base^exp through mulNodes. A base of 2 or more passes
// MaxNodes within bits.Len(MaxNodes) steps and a base of 1 never moves, so
// the loop is bounded whatever exp a request sends.
func powNodes(base, exp int) int {
	n := 1
	for i := 0; i < min(exp, bits.Len(MaxNodes)); i++ {
		n = mulNodes(n, base)
	}
	return n
}
