// Package cliutil parses the shared command-line specification syntax of
// the repository's tools: topology specs ("torus:8,8,8"), task-graph
// pattern specs ("mesh2d:16,16"), workload specs, and strategy names.
// Each vocabulary is one table of rows — topology.Machines(), patternTable,
// strategyTable — so cmd/topomap, cmd/netsim, cmd/lbsim and topomapd accept,
// list and refuse the same things.
package cliutil

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/hiertopo"
	"repro/internal/topology"
)

// machineNames spells every row of topology.Machines() as a flat spec
// form, or only the rows the simulator can route on.
func machineNames(routersOnly bool) []string {
	var names []string
	for _, r := range topology.Machines() {
		if r.Routes || !routersOnly {
			names = append(names, r.Usage)
		}
	}
	return names
}

// TopologyNames lists the machine spec forms ParseAnyTopology accepts:
// the rows of topology.Machines(), then a hierarchy by example.
func TopologyNames() []string {
	return append(machineNames(false), "hier:pod:2/rack:4/node:8:torus-2x4")
}

// RouterNames lists the machine spec forms ParseTopology accepts.
func RouterNames() []string { return machineNames(true) }

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

// noRouting refuses a machine the simulator cannot route on, naming the
// kinds it can.
func noRouting(what string) error {
	var routes []string
	for _, r := range topology.Machines() {
		if r.Routes {
			routes = append(routes, r.Kind)
		}
	}
	return fmt.Errorf("cliutil: %s topologies do not support per-link routing; use %s", what, strings.Join(routes, "/"))
}

// findMachine resolves a flat machine spec to its row and dimensions.
func findMachine(spec string) (topology.MachineRow, []int, error) {
	kind, dims, err := splitSpec(spec)
	if err != nil {
		return topology.MachineRow{}, nil, err
	}
	row, ok := topology.FindMachine(kind)
	if !ok {
		return row, nil, fmt.Errorf("cliutil: unknown topology kind %q (known: %s)",
			kind, strings.Join(TopologyNames(), ", "))
	}
	return row, dims, row.Check(dims)
}

// ParseTopology parses the spec of a machine the simulator can route on:
// a row of topology.Machines() with Routes set. The others (fat-trees,
// hierarchies) expose no per-link routes; use ParseAnyTopology where
// routing is not required.
func ParseTopology(spec string) (topology.Router, error) {
	if strings.HasPrefix(spec, "hier:") {
		return nil, noRouting("hierarchical")
	}
	row, dims, err := findMachine(spec)
	if err != nil {
		return nil, err
	}
	if !row.Routes {
		return nil, noRouting(row.Kind)
	}
	t, err := row.New(dims)
	if err != nil {
		return nil, err
	}
	return t.(topology.Router), nil
}

// ParseAnyTopology parses any machine spec (see TopologyNames), for
// metric-only use: every row of topology.Machines() and hier:SPEC, a
// hierarchical machine (see internal/hiertopo).
func ParseAnyTopology(spec string) (topology.Topology, error) {
	if rest, ok := strings.CutPrefix(spec, "hier:"); ok {
		return hiertopo.Parse(rest)
	}
	row, dims, err := findMachine(spec)
	if err != nil {
		return nil, err
	}
	return row.New(dims)
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
