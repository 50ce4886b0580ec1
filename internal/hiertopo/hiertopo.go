// Package hiertopo models hierarchical machine topologies: ordered levels
// (e.g. pod → rack → node) with per-level link cost, each innermost-level
// instance bound to an ordinary topology.Topology (a torus, mesh,
// hypercube, or fat-tree) so intra-node distances stay exact. Modern
// machines are hierarchies whose link bandwidth drops an order of
// magnitude at each level boundary; the flat mesh/torus models of the
// 2006 paper cannot express that, and a mapping that ignores it pays the
// most expensive links for its heaviest traffic.
//
// A Hierarchy implements topology.Topology with a composite distance:
// two processors in the same leaf are separated by their exact leaf
// distance, and two processors whose paths diverge at level i are
// separated by that level's cost rounded to a whole number of links
// (outer levels cost more, default 10× per level). Hop-bytes on a
// hierarchy is core.HopBytes over that Distance, as on any other machine.
//
// Hierarchies are built deterministically from a compact spec string
//
//	pod:2/rack:4/node:8:torus-2x4
//
// (levels outermost first, "@cost" overrides a level's cost, the
// trailing segment may bind a leaf topology) or from the equivalent JSON
// Spec that topomapd accepts.
package hiertopo

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/topology"
)

// Level describes one hierarchy level, outermost first.
type Level struct {
	// Name identifies the level ("pod", "rack", ...): lowercase
	// alphanumeric starting with a letter, unique within a hierarchy.
	Name string
	// Count is the fan-out: how many instances of this level each
	// instance of the enclosing level contains (the outermost level's
	// count is the machine-wide instance count).
	Count int
	// Cost is the composite distance charged to a byte whose endpoints
	// diverge at this level. 0 derives it: 1/Bandwidth when Bandwidth is
	// set, otherwise 10^(levels−i) so each boundary outward costs 10×
	// more. Resolved costs must lie in [1, math.MaxInt32] and must not
	// increase inward. Distances charge the cost rounded to the nearest
	// integer.
	Cost float64
	// Bandwidth is the level's relative link bandwidth (leaf links =
	// 1.0); it informs Cost when Cost is unset.
	Bandwidth float64
	// Latency is the level's link latency in seconds. It annotates the
	// model (and survives the JSON round trip) but does not enter the
	// distance metric, which stays pure hop-bytes as in the paper.
	Latency float64
}

// Construction bounds: enough for any machine the repo models while
// keeping every derived quantity comfortably in range.
const (
	maxLevels   = 6
	maxFanout   = 4096
	maxNameLen  = 16
	maxNbrNodes = 1 << 20 // above this, Neighbors returns empty lists
	unitSibCap  = 64      // sibling fan-out cap for unit-leaf neighbor lists
)

// Hierarchy is an immutable hierarchical machine topology. Processor
// ranks are leaf-major: rank = leafIndex·leafSize + leafLocalRank, so
// every instance of every level owns one contiguous rank range and
// instance 0 of level i is exactly the rank prefix [0, InstanceSize(i)).
type Hierarchy struct {
	levels   []Level // resolved costs
	leaf     topology.Topology
	leafSpec string // "" for single-processor leaves
	n        int
	leafSize int
	inst     []int   // inst[i] = processors per level-i instance
	icost    []int32 // level costs rounded to the nearest integer
	spec     string
	name     string

	nbrsOnce sync.Once
	nbrs     [][]int
}

var _ topology.Topology = (*Hierarchy)(nil)

// New constructs a hierarchy from levels (outermost first) and a leaf
// topology spec ("torus-2x4", "mesh-8", "hypercube-3", "fattree-2x3";
// "" binds single-processor leaves).
func New(levels []Level, leafSpec string) (*Hierarchy, error) {
	if err := checkDepth(len(levels)); err != nil {
		return nil, err
	}
	leaf, err := parseLeaf(leafSpec)
	if err != nil {
		return nil, err
	}
	h := &Hierarchy{
		levels:   append([]Level(nil), levels...),
		leaf:     leaf,
		leafSpec: leafSpec,
		leafSize: leaf.Nodes(),
	}
	if h.n, err = resolveLevels(h.levels, h.leafSize); err != nil {
		return nil, err
	}
	L := len(h.levels)
	h.inst = make([]int, L)
	h.icost = make([]int32, L)
	sz := h.leafSize
	for i := L - 1; i >= 0; i-- {
		h.inst[i] = sz
		sz *= h.levels[i].Count
		h.icost[i] = int32(h.levels[i].Cost + 0.5)
	}
	h.spec = compactSpec(h.levels, h.leafSpec)
	h.name = "hier(" + h.spec + ")"
	return h, nil
}

func checkDepth(levels int) error {
	if levels < 1 || levels > maxLevels {
		return fmt.Errorf("hiertopo: need 1..%d levels, got %d", maxLevels, levels)
	}
	return nil
}

// resolveLevels validates levels (outermost first) in place, fills every
// unset cost, and returns the machine's processor count given leafSize
// processors per leaf. It needs no leaf topology, so a spec can be
// canonicalized without constructing the machine it describes.
func resolveLevels(levels []Level, leafSize int) (int, error) {
	L := len(levels)
	n := leafSize
	for i := L - 1; i >= 0; i-- {
		lv := &levels[i]
		if err := checkName(lv.Name); err != nil {
			return 0, err
		}
		if lv.Count < 1 || lv.Count > maxFanout {
			return 0, fmt.Errorf("hiertopo: level %q count %d out of range [1,%d]", lv.Name, lv.Count, maxFanout)
		}
		if lv.Cost < 0 || lv.Bandwidth < 0 || lv.Latency < 0 {
			return 0, fmt.Errorf("hiertopo: level %q has a negative cost, bandwidth, or latency", lv.Name)
		}
		//lint:ignore floatcmp literal 0 is the unset sentinel for Cost, replaced by the bandwidth- or position-derived default
		if lv.Cost == 0 {
			if lv.Bandwidth > 0 {
				lv.Cost = 1 / lv.Bandwidth
			} else {
				lv.Cost = defaultCost(i, L)
			}
		}
		if lv.Cost < 1 {
			return 0, fmt.Errorf("hiertopo: level %q cost %g must be >= 1 (crossing a level can never be cheaper than a link)", lv.Name, lv.Cost)
		}
		// Distance charges int32(Cost+0.5). The negated test also refuses NaN.
		if !(lv.Cost < math.MaxInt32+0.5) {
			return 0, fmt.Errorf("hiertopo: level %q cost %g out of range [1,%d] (distances charge it rounded to a whole number)", lv.Name, lv.Cost, math.MaxInt32)
		}
		if n > topology.MaxNodes/lv.Count {
			return 0, fmt.Errorf("hiertopo: hierarchy exceeds %d processors", topology.MaxNodes)
		}
		n *= lv.Count
	}
	for i := 0; i < L; i++ {
		for j := i + 1; j < L; j++ {
			if levels[i].Name == levels[j].Name {
				return 0, fmt.Errorf("hiertopo: duplicate level name %q", levels[i].Name)
			}
		}
		if i+1 < L && levels[i].Cost < levels[i+1].Cost {
			return 0, fmt.Errorf("hiertopo: level %q cost %g is lower than inner level %q cost %g (outer boundaries must cost at least as much)",
				levels[i].Name, levels[i].Cost, levels[i+1].Name, levels[i+1].Cost)
		}
	}
	return n, nil
}

// defaultCost is the position-derived level cost: the innermost boundary
// costs 10, and each level outward multiplies by 10.
func defaultCost(i, levels int) float64 {
	c := 1.0
	for k := i; k < levels; k++ {
		c *= 10
	}
	return c
}

func checkName(name string) error {
	if name == "" || len(name) > maxNameLen {
		return fmt.Errorf("hiertopo: level name %q must be 1..%d characters", name, maxNameLen)
	}
	for i, r := range name {
		lower := r >= 'a' && r <= 'z'
		digit := r >= '0' && r <= '9'
		if !lower && !(digit && i > 0) {
			return fmt.Errorf("hiertopo: level name %q must be lowercase alphanumeric starting with a letter", name)
		}
	}
	return nil
}

// Nodes implements topology.Topology.
func (h *Hierarchy) Nodes() int { return h.n }

// Name implements topology.Topology. The name embeds the canonical spec,
// which (with the deterministic cost defaults) uniquely determines the
// distance function — the property the distance-matrix cache requires.
func (h *Hierarchy) Name() string { return h.name }

// Spec returns the canonical compact spec: Parse(h.Spec()) reproduces h.
func (h *Hierarchy) Spec() string { return h.spec }

// NumLevels returns the number of hierarchy levels.
func (h *Hierarchy) NumLevels() int { return len(h.levels) }

// Levels returns a copy of the resolved levels (costs filled in).
func (h *Hierarchy) Levels() []Level { return append([]Level(nil), h.levels...) }

// Leaf returns the shared leaf topology.
func (h *Hierarchy) Leaf() topology.Topology { return h.leaf }

// LeafSize returns the processors per leaf.
func (h *Hierarchy) LeafSize() int { return h.leafSize }

// InstanceSize returns the processors inside one instance of level i.
func (h *Hierarchy) InstanceSize(i int) int { return h.inst[i] }

// LevelIndex returns the index of the named level, or -1.
func (h *Hierarchy) LevelIndex(name string) int {
	for i, lv := range h.levels {
		if lv.Name == name {
			return i
		}
	}
	return -1
}

// DivergeLevel returns the outermost level index at which the paths to a
// and b diverge, or -1 when both live in the same leaf.
func (h *Hierarchy) DivergeLevel(a, b int) int {
	if a/h.leafSize == b/h.leafSize {
		return -1
	}
	for i, s := range h.inst {
		if a/s != b/s {
			return i
		}
	}
	// Unreachable: inst[len-1] divides ranks into leaves, so two ranks in
	// different leaves diverge at some level.
	panic("hiertopo: divergence not found")
}

// Distance implements topology.Topology: the exact leaf distance inside
// a leaf, and the (integer-rounded) diverging level's cost across leaves.
func (h *Hierarchy) Distance(a, b int) int {
	h.check(a)
	h.check(b)
	if a/h.leafSize == b/h.leafSize {
		base := a / h.leafSize * h.leafSize
		return h.leaf.Distance(a-base, b-base)
	}
	for i, s := range h.inst {
		if a/s != b/s {
			return int(h.icost[i])
		}
	}
	panic("hiertopo: divergence not found")
}

// Subtree returns the machine seen by one instance of level i: the
// hierarchy of the levels inside it, with the resolved costs and the
// leaf carried over. Because ranks are leaf-major, instance 0 of level i
// occupies exactly the global ranks [0, InstanceSize(i)), and the
// subtree's distances agree with h's on that prefix — so a mapping
// computed on the subtree is already a mapping onto h. The innermost
// level's subtree is represented as that level with count 1 (one
// instance holding one leaf).
func (h *Hierarchy) Subtree(i int) (*Hierarchy, error) {
	if i < 0 || i >= len(h.levels) {
		return nil, fmt.Errorf("hiertopo: subtree level %d out of range [0,%d)", i, len(h.levels))
	}
	if i == len(h.levels)-1 {
		lv := h.levels[i]
		lv.Count = 1
		return New([]Level{lv}, h.leafSpec)
	}
	return New(h.levels[i+1:], h.leafSpec)
}

// Neighbors implements topology.Topology: the processor's neighbors
// inside its own leaf (hierarchy boundaries are switched fabrics, not
// processor-to-processor links). Single-processor leaves fall back to
// the fat-tree convention — the siblings inside the innermost level's
// enclosing instance — when that group is small enough to enumerate.
// The lists are built lazily on first call; machines above 2^20
// processors return empty lists rather than materialize O(n·deg) slices.
func (h *Hierarchy) Neighbors(a int) []int {
	h.check(a)
	h.nbrsOnce.Do(h.buildNeighbors)
	return h.nbrs[a]
}

func (h *Hierarchy) buildNeighbors() {
	h.nbrs = make([][]int, h.n)
	if h.n > maxNbrNodes {
		return
	}
	if h.leafSize > 1 {
		for r := 0; r < h.n; r++ {
			base := r / h.leafSize * h.leafSize
			ln := h.leaf.Neighbors(r - base)
			nb := make([]int, len(ln))
			for i, q := range ln {
				nb[i] = base + q
			}
			h.nbrs[r] = nb
		}
		return
	}
	// Unit leaves: siblings inside one innermost-level group.
	gsz := h.levels[len(h.levels)-1].Count
	if len(h.levels) == 1 {
		gsz = h.n
	}
	if gsz > unitSibCap {
		return
	}
	for r := 0; r < h.n; r++ {
		base := r / gsz * gsz
		nb := make([]int, 0, gsz-1)
		for q := base; q < base+gsz; q++ {
			if q != r {
				nb = append(nb, q)
			}
		}
		h.nbrs[r] = nb
	}
}

func (h *Hierarchy) check(a int) {
	if a < 0 || a >= h.n {
		panic(fmt.Sprintf("hiertopo: node %d out of range [0,%d)", a, h.n))
	}
}
