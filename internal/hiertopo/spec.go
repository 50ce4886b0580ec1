package hiertopo

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/topology"
)

// Parse builds a hierarchy from its compact spec:
//
//	pod:2/rack:4/node:8:torus-2x4
//
// Levels are listed outermost first as name:count segments separated by
// "/". A segment may append "@cost" to override that level's composite
// cost ("rack:4@50"). The innermost segment may append a third field
// binding the leaf topology — a row of topology.Machines() spelled with
// "-" and "x", like torus-D1xD2[x...] or hypercube-D; without it every
// leaf is a single processor. Parse(h.Spec()) reproduces h exactly.
func Parse(spec string) (*Hierarchy, error) {
	segs := strings.Split(spec, "/")
	levels := make([]Level, 0, len(segs))
	leafSpec := ""
	for si, seg := range segs {
		parts := strings.Split(seg, ":")
		switch {
		case len(parts) < 2:
			return nil, fmt.Errorf("hiertopo: level segment %q needs name:count", seg)
		case len(parts) == 3:
			if si != len(segs)-1 {
				return nil, fmt.Errorf("hiertopo: only the innermost level may bind a leaf topology (segment %q)", seg)
			}
			leafSpec = parts[2]
		case len(parts) > 3:
			return nil, fmt.Errorf("hiertopo: level segment %q has too many fields", seg)
		}
		lv := Level{Name: parts[0]}
		countStr, costStr, hasCost := strings.Cut(parts[1], "@")
		count, err := strconv.Atoi(countStr)
		if err != nil {
			return nil, fmt.Errorf("hiertopo: bad count %q in segment %q", countStr, seg)
		}
		lv.Count = count
		if hasCost {
			cost, err := strconv.ParseFloat(costStr, 64)
			if err != nil {
				return nil, fmt.Errorf("hiertopo: bad cost %q in segment %q", costStr, seg)
			}
			lv.Cost = cost
		}
		levels = append(levels, lv)
	}
	return New(levels, leafSpec)
}

// LevelNames reads the level names of a compact spec, outermost first,
// from its text alone. It validates nothing: Parse reports a malformed
// spec, and on a spec Parse accepts the i-th name is level i's.
func LevelNames(spec string) []string {
	segs := strings.Split(spec, "/")
	names := make([]string, len(segs))
	for i, seg := range segs {
		names[i], _, _ = strings.Cut(seg, ":")
	}
	return names
}

// compactSpec renders the canonical compact spec of resolved levels:
// default costs are omitted, explicit ones appear as "@cost", and a
// non-trivial leaf is bound to the innermost segment.
func compactSpec(levels []Level, leafSpec string) string {
	var b strings.Builder
	L := len(levels)
	for i, lv := range levels {
		if i > 0 {
			b.WriteByte('/')
		}
		b.WriteString(lv.Name)
		b.WriteByte(':')
		b.WriteString(strconv.Itoa(lv.Count))
		//lint:ignore floatcmp resolved costs equal to the deterministic default are omitted from the canonical spec; both sides come from the same resolution path
		if lv.Cost != defaultCost(i, L) {
			b.WriteByte('@')
			b.WriteString(strconv.FormatFloat(lv.Cost, 'g', -1, 64))
		}
	}
	if leafSpec != "" {
		b.WriteByte(':')
		b.WriteString(leafSpec)
	}
	return b.String()
}

// parseLeafSpec reads a leaf topology spec's kind and dimensions and
// checks the kind's arity, without constructing the topology.
func parseLeafSpec(spec string) (row topology.MachineRow, dims []int, err error) {
	kind, rest, ok := strings.Cut(spec, "-")
	if !ok {
		return row, nil, fmt.Errorf("hiertopo: leaf spec %q needs kind-dims (e.g. torus-2x4)", spec)
	}
	parts := strings.Split(rest, "x")
	dims = make([]int, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil {
			return row, nil, fmt.Errorf("hiertopo: bad leaf dimension %q in %q", p, spec)
		}
		dims[i] = v
	}
	if row, ok = topology.FindMachine(kind); !ok {
		var known []string
		for _, r := range topology.Machines() {
			known = append(known, r.Kind)
		}
		return row, nil, fmt.Errorf("hiertopo: unknown leaf topology kind %q (known: %s)", kind, strings.Join(known, ", "))
	}
	if err := row.Check(dims); err != nil {
		return row, nil, fmt.Errorf("hiertopo: leaf %q: %w", spec, err)
	}
	return row, dims, nil
}

// parseLeaf constructs the topology a leaf spec names. "" binds
// single-processor leaves. A spec that parses is its own canonical form.
func parseLeaf(spec string) (topology.Topology, error) {
	if spec == "" {
		return topology.NewMesh(1)
	}
	row, dims, err := parseLeafSpec(spec)
	if err != nil {
		return nil, err
	}
	// Checked on the count, before construction: a leaf a thousand times
	// over the limit would otherwise be laid out in full to be refused. A
	// count past topology.MaxNodes is the constructor's to refuse.
	if nodes := row.Nodes(dims); nodes > maxFanout && nodes <= topology.MaxNodes {
		return nil, fmt.Errorf("hiertopo: leaf %q has %d processors, limit %d", spec, nodes, maxFanout)
	}
	t, err := row.New(dims)
	if err != nil {
		return nil, fmt.Errorf("hiertopo: leaf %q: %w", spec, err)
	}
	return t, nil
}

// LevelSpec is the JSON wire form of one level.
type LevelSpec struct {
	Name string `json:"name"`
	// Count is the level's fan-out.
	Count int `json:"count"`
	// Cost is the composite distance charged when a message's endpoints
	// diverge at this level, rounded to the nearest integer; 0 derives it
	// from Bandwidth or the 10× positional default. See Level.Cost.
	Cost float64 `json:"cost,omitempty"`
	// Bandwidth is the level's relative link bandwidth (leaf links = 1).
	Bandwidth float64 `json:"bandwidth,omitempty"`
	// Latency annotates the level in seconds; it is not part of the
	// distance metric.
	Latency float64 `json:"latency,omitempty"`
}

// Spec is the JSON wire form of a hierarchy, as topomapd's "hierarchy"
// job field accepts:
//
//	{"levels": [{"name": "pod", "count": 2}, {"name": "rack", "count": 4},
//	            {"name": "node", "count": 8}], "leaf": "torus-2x4"}
type Spec struct {
	Levels []LevelSpec `json:"levels"`
	Leaf   string      `json:"leaf,omitempty"`
}

// levels converts the wire levels to Levels with normalized names.
func (s *Spec) levels() ([]Level, string) {
	levels := make([]Level, len(s.Levels))
	for i, ls := range s.Levels {
		levels[i] = Level{
			Name:      strings.ToLower(strings.TrimSpace(ls.Name)),
			Count:     ls.Count,
			Cost:      ls.Cost,
			Bandwidth: ls.Bandwidth,
			Latency:   ls.Latency,
		}
	}
	return levels, strings.ToLower(strings.TrimSpace(s.Leaf))
}

// Build constructs the hierarchy a Spec describes.
func (s *Spec) Build() (*Hierarchy, error) {
	return New(s.levels())
}

// Canonical returns the compact spec Build().Spec() would, from the text
// of s alone: levels are validated and their costs resolved and the leaf
// spec is parsed, but no topology is constructed. What only construction
// can reject (a leaf dimension out of range, a machine over the processor
// limit) is left for Parse of the result to report.
func (s *Spec) Canonical() (string, error) {
	levels, leaf := s.levels()
	if err := checkDepth(len(levels)); err != nil {
		return "", err
	}
	if leaf != "" {
		if _, _, err := parseLeafSpec(leaf); err != nil {
			return "", err
		}
	}
	if _, err := resolveLevels(levels, 1); err != nil {
		return "", err
	}
	return compactSpec(levels, leaf), nil
}
