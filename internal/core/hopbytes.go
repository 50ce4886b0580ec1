package core

import (
	"math/bits"

	"repro/internal/parallel"
	"repro/internal/taskgraph"
	"repro/internal/topology"
)

// hopBytesGrain is the fixed number of tasks whose edges share one
// floating-point accumulator in HopBytes. It is part of the metric's
// value: the chunk partials are added in index order, so changing the
// grain changes the last bits of every recorded hop-bytes.
const hopBytesGrain = 64

// HopBytes returns the paper's evaluation metric (§3):
//
//	HB(Gt, Gp, P) = Σ_{e_ab ∈ Et} c_ab · d_p(P(a), P(b))
//
// i.e. every communicated byte weighted by the number of network links it
// must cross under mapping m. Per-task subtotals are computed in parallel
// over fixed vertex chunks and merged in index order, so the value is
// identical for any GOMAXPROCS. On labels a task's edges hoist its
// processor's label.
func HopBytes(g *taskgraph.Graph, t topology.Topology, m Mapping) float64 {
	d := topology.NewDists(t)
	sum := func(a, b float64) float64 { return a + b }
	if l := d.Labels(); l != nil {
		return parallel.Reduce(g.NumVertices(), hopBytesGrain, func(lo, hi int) float64 {
			hb := 0.0
			for v := lo; v < hi; v++ {
				adj, w := g.Neighbors(v)
				lv := l[m[v]]
				for i, u := range adj {
					if int32(v) < u {
						hb += float64(w[i] * float64(bits.OnesCount64(lv^l[m[u]])))
					}
				}
			}
			return hb
		}, sum)
	}
	return parallel.Reduce(g.NumVertices(), hopBytesGrain, func(lo, hi int) float64 {
		d := d // the chunk's own copy: a method call on the captured one would move it to the heap
		hb := 0.0
		for v := lo; v < hi; v++ {
			adj, w := g.Neighbors(v)
			pv := m[v]
			for i, u := range adj {
				if int32(v) < u {
					hb += float64(w[i] * float64(d.Dist(pv, m[u])))
				}
			}
		}
		return hb
	}, sum)
}

// HopsPerByte returns HopBytes divided by the total communication volume —
// the average number of links each byte crosses. The paper reports this
// normalized form in Figures 1–6. Returns 0 for graphs with no
// communication.
func HopsPerByte(g *taskgraph.Graph, t topology.Topology, m Mapping) float64 {
	total := g.TotalComm()
	if total <= 0 {
		return 0
	}
	return HopBytes(g, t, m) / total
}
