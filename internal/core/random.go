package core

import (
	"math/rand"

	"repro/internal/taskgraph"
	"repro/internal/topology"
)

// Random places tasks on processors by a uniformly random permutation —
// the paper's baseline. (Charm++'s GreedyLB, used as the baseline in the
// network simulations, is "essentially random placement" with respect to
// topology.) Deterministic for a given seed.
type Random struct {
	Seed int64
}

// Name implements Strategy.
func (Random) Name() string { return "Random" }

// Map implements Strategy.
func (s Random) Map(g *taskgraph.Graph, t topology.Topology) (Mapping, error) {
	if err := CheckSizes(g, t); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(s.Seed))
	return Mapping(rng.Perm(t.Nodes())), nil
}

// Identity places task i on processor i. When the task graph is generated
// with the machine's own shape (e.g. an 8×8×8 Jacobi pattern on an
// (8,8,8) mesh, Table 1) the row-major orders coincide, so Identity is the
// optimal isomorphism mapping: every message travels exactly one hop.
type Identity struct{}

// Name implements Strategy.
func (Identity) Name() string { return "Identity" }

// Map implements Strategy.
func (Identity) Map(g *taskgraph.Graph, t topology.Topology) (Mapping, error) {
	if err := CheckSizes(g, t); err != nil {
		return nil, err
	}
	m := make(Mapping, t.Nodes())
	for i := range m {
		m[i] = i
	}
	return m, nil
}

// ExpectedRandomHopsPerByte returns the analytic expectation the paper
// overlays on Figures 1 and 3: under random placement each byte travels
// the mean internode distance of the machine (√p/2 on an even 2D torus,
// 3·∛p/4 on an even 3D torus).
func ExpectedRandomHopsPerByte(t topology.Topology) float64 {
	type avg interface{ AverageDistance() float64 }
	if a, ok := t.(avg); ok {
		return a.AverageDistance()
	}
	return topology.MeanDistance(t)
}
