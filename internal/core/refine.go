package core

import (
	"fmt"
	"math/bits"

	"repro/internal/taskgraph"
	"repro/internal/topology"
)

// RefineTopoLB is the paper's topology-aware refiner (§5.2.3): starting
// from an existing mapping it repeatedly examines task pairs and swaps
// their processors whenever the swap strictly reduces hop-bytes, sweeping
// until a full pass finds no improving swap (or refinePasses is reached).
// It is intended to run after an initial strategy such as TopoLB.
type RefineTopoLB struct {
	// Base produces the initial mapping. Required.
	Base Strategy
}

// refinePasses bounds RefineTopoLB's full sweeps.
const refinePasses = 8

// Name implements Strategy.
func (r RefineTopoLB) Name() string {
	if r.Base == nil {
		return "RefineTopoLB"
	}
	return r.Base.Name() + "+Refine"
}

// WithCoords hands coords to a Base that takes them.
func (r RefineTopoLB) WithCoords(coords [][]float64) Strategy {
	if b, ok := r.Base.(interface {
		WithCoords([][]float64) Strategy
	}); ok {
		r.Base = b.WithCoords(coords)
	}
	return r
}

// Map implements Strategy: run Base, then refine.
func (r RefineTopoLB) Map(g *taskgraph.Graph, t topology.Topology) (Mapping, error) {
	if r.Base == nil {
		return nil, fmt.Errorf("core: RefineTopoLB requires a Base strategy")
	}
	m, err := r.Base.Map(g, t)
	if err != nil {
		return nil, err
	}
	Refine(g, t, m, refinePasses)
	return m, nil
}

// Refine improves mapping m in place by pairwise swaps, each accepted only
// if it strictly reduces hop-bytes. To keep sweeps near-linear in the
// number of edges, candidate pairs are (task, neighbor-of-task's-processor
// occupant) and (task, communication partner) — the pairs with any chance
// of first-order improvement — plus a full quadratic sweep when p is
// small. Candidates are tried one at a time in a fixed order (see
// sweepCandidates). m may also be a placement with several tasks on a
// processor, or none: a swap exchanges two tasks' processors, so every
// processor keeps its task count. Returns the number of swaps performed.
func Refine(g *taskgraph.Graph, t topology.Topology, m Mapping, maxPasses int) int {
	n := len(m)
	d := topology.NewDists(t)
	// processor -> one of its tasks, -1 when it has none
	occupant := make([]int, t.Nodes())
	for i := range occupant {
		occupant[i] = -1
	}
	for task, proc := range m {
		occupant[proc] = task
	}
	swaps := 0
	for pass := 0; pass < maxPasses; pass++ {
		improved := 0
		for a := 0; a < n; a++ {
			// Candidate partners: occupants of processors adjacent to a's
			// current processor, plus a's communication partners. Like the
			// serial sweep, the adjacency snapshot is taken before any of
			// its swaps apply, while occupants are read at trial time.
			nbrs := t.Neighbors(m[a])
			improved += sweepCandidates(g, &d, m, occupant, a, len(nbrs),
				func(j int) int { return occupant[nbrs[j]] })
			adj, _ := g.Neighbors(a)
			improved += sweepCandidates(g, &d, m, occupant, a, len(adj),
				func(j int) int { return int(adj[j]) })
			if n <= 256 {
				improved += sweepCandidates(g, &d, m, occupant, a, n-a-1,
					func(j int) int { return a + 1 + j })
			}
		}
		swaps += improved
		if improved == 0 {
			break
		}
	}
	return swaps
}

// sweepCandidates tries task a against partner(0..count-1) in order,
// applying each strictly improving swap as it is met and trying the next
// candidate against the mapping that swap left. A partner that is -1 (an
// empty processor) or shares a's processor is skipped; on a bijection
// that is b == a alone. The loop is serial on purpose: a swap delta is
// O(deg) work, far below what a fork costs (DESIGN §6).
func sweepCandidates(g *taskgraph.Graph, d *topology.Dists, m Mapping, occupant []int, a, count int, partner func(j int) int) int {
	swaps := 0
	adjA, wA := g.Neighbors(a)
	for j := 0; j < count; j++ {
		b := partner(j)
		if b < 0 || m[b] == m[a] {
			continue
		}
		adjB, wB := g.Neighbors(b)
		if SwapDelta(d, m, m[a], m[b], a, adjA, wA, b, adjB, wB) < -1e-12 {
			m[a], m[b] = m[b], m[a]
			occupant[m[a]] = a
			occupant[m[b]] = b
			swaps++
		}
	}
	return swaps
}

// SwapDelta returns the hop-bytes change (negative is better) when task a,
// whose partners and weights are adjA and wA, goes from processor pa to pb
// while task b, whose row is adjB and wB, goes from pb to pa; m holds every
// other task's processor. A move of a alone is b = -1 with an empty row.
// The a–b edge, if any, is as long after a swap as before and is skipped.
// Every refiner scores with it, the V-cycle's included (DESIGN §11). It
// reads one of three sources, each summing the same integer terms in the
// same order: the matrix's rows of pa and pb, the labels of pa and pb
// (the V-cycle's, off ClosedDists on a labelled machine), or Dist.
func SwapDelta(d *topology.Dists, m Mapping, pa, pb, a int, adjA []int32, wA []float64, b int, adjB []int32, wB []float64) float64 {
	delta := 0.0
	if dm := d.Matrix(); dm != nil {
		rowA, rowB := dm.Row(pa), dm.Row(pb)
		for i, u := range adjA {
			if int(u) != b {
				pu := m[u]
				delta += wA[i] * float64(rowB[pu]-rowA[pu])
			}
		}
		for i, u := range adjB {
			if int(u) != a {
				pu := m[u]
				delta += wB[i] * float64(rowA[pu]-rowB[pu])
			}
		}
		return delta
	}
	if l := d.Labels(); l != nil {
		la, lb := l[pa], l[pb]
		for i, u := range adjA {
			if int(u) != b {
				x := l[m[u]]
				delta += wA[i] * float64(bits.OnesCount64(lb^x)-bits.OnesCount64(la^x))
			}
		}
		for i, u := range adjB {
			if int(u) != a {
				x := l[m[u]]
				delta += wB[i] * float64(bits.OnesCount64(la^x)-bits.OnesCount64(lb^x))
			}
		}
		return delta
	}
	for i, u := range adjA {
		if int(u) != b {
			pu := m[u]
			delta += wA[i] * float64(d.Dist(pb, pu)-d.Dist(pa, pu))
		}
	}
	for i, u := range adjB {
		if int(u) != a {
			pu := m[u]
			delta += wB[i] * float64(d.Dist(pa, pu)-d.Dist(pb, pu))
		}
	}
	return delta
}
