// Package metrics computes mapping-quality measures beyond hop-bytes.
// Hop-bytes (package core) is the paper's objective; the literature it
// surveys uses several others, and contention depends on routed link
// loads rather than distances alone. This package reports them all, so
// strategies can be compared on every axis:
//
//   - dilation: per-edge hop distance (max and communication-weighted mean)
//   - cardinality: Bokhari's metric — edges landing on adjacent processors
//   - routed link loads: bytes per directed link under the topology's
//     deterministic routing (max, mean, and coefficient of variation),
//     the direct proxy for the contention the paper measures
//   - processor load balance for non-bijective placements
package metrics

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/taskgraph"
	"repro/internal/topology"
)

// Report bundles every mapping-quality measure for one placement.
//
//lint:ignore jsoncontract float fields marshal via Go's shortest-form strconv — deterministic for identical inputs; wire bytes pinned by cache equality and golden tests
type Report struct {
	// HopBytes is Σ c_ab · d(P(a), P(b)) — the paper's metric, as
	// core.HopBytes sums it, to the bit.
	HopBytes float64
	// HopsPerByte normalizes HopBytes by the total communication volume
	// (taskgraph.Graph.TotalComm).
	HopsPerByte float64
	// MaxDilation is the largest hop distance any edge suffers.
	MaxDilation int
	// MeanDilation is the unweighted mean edge distance.
	MeanDilation float64
	// Cardinality counts edges whose endpoints land on the same or
	// adjacent processors (Bokhari's objective, to be maximized).
	Cardinality int
	// MaxLinkBytes / MeanLinkBytes are routed per-link loads; LinkCV is
	// their coefficient of variation (0 = perfectly even).
	MaxLinkBytes  float64
	MeanLinkBytes float64
	LinkCV        float64
	// MaxProcLoad / Imbalance describe compute balance (Imbalance is
	// max/average; 1.0 is perfect).
	MaxProcLoad float64
	Imbalance   float64
}

// Evaluate computes a full Report for placement m of g on t. Placements
// need not be bijective (multiple tasks may share a processor). Link
// loads require t to implement topology.Router; otherwise those fields
// are zero and RoutedLoads can not be derived.
func Evaluate(g *taskgraph.Graph, t topology.Topology, m []int) (*Report, error) {
	n := g.NumVertices()
	if len(m) != n {
		return nil, fmt.Errorf("metrics: placement has %d entries for %d tasks", len(m), n)
	}
	procs := t.Nodes()
	for v, p := range m {
		if p < 0 || p >= procs {
			return nil, fmt.Errorf("metrics: task %d on processor %d, out of [0,%d)", v, p, procs)
		}
	}
	r := &Report{HopBytes: core.HopBytes(g, t, m)}
	if total := g.TotalComm(); total > 0 {
		r.HopsPerByte = r.HopBytes / total
	}
	edges := 0
	dists := topology.NewDists(t)
	for v := 0; v < n; v++ {
		adj, _ := g.Neighbors(v)
		for _, u := range adj {
			if int32(v) >= u {
				continue
			}
			d := dists.Dist(m[v], m[u])
			edges++
			r.MeanDilation += float64(d)
			if d > r.MaxDilation {
				r.MaxDilation = d
			}
			if d <= 1 {
				r.Cardinality++
			}
		}
	}
	if edges > 0 {
		r.MeanDilation /= float64(edges)
	}

	if router, ok := t.(topology.Router); ok {
		loads := RoutedLoads(g, router, m, false)
		sum, sumSq := 0.0, 0.0
		for _, b := range loads {
			sum += b
			sumSq += float64(b * b)
			if b > r.MaxLinkBytes {
				r.MaxLinkBytes = b
			}
		}
		if len(loads) > 0 {
			r.MeanLinkBytes = sum / float64(len(loads))
			variance := sumSq/float64(len(loads)) - float64(r.MeanLinkBytes*r.MeanLinkBytes)
			if variance > 0 && r.MeanLinkBytes > 0 {
				r.LinkCV = math.Sqrt(variance) / r.MeanLinkBytes
			}
		}
	}

	procLoads := make([]float64, procs)
	total := 0.0
	for v, p := range m {
		procLoads[p] += g.VertexWeight(v)
		total += g.VertexWeight(v)
	}
	for _, l := range procLoads {
		if l > r.MaxProcLoad {
			r.MaxProcLoad = l
		}
	}
	if total > 0 {
		r.Imbalance = r.MaxProcLoad / (total / float64(procs))
	}
	return r, nil
}

// RoutedLoads returns the bytes each directed link carries per iteration
// when every task-graph edge sends its weight both ways along the
// topology's deterministic routes. The slice is indexed by
// topology.EnumerateLinks order. It is the repository's one routing of
// task-graph messages onto links: Evaluate reads it, and so does the
// contention emulator.
//
// With split, each message of more than one hop sends half its bytes
// along the reverse of dst's route back to src — a minimal path that
// corrects dimensions in the opposite order — the emulator's stand-in
// for BlueGene's adaptive routing.
func RoutedLoads(g *taskgraph.Graph, t topology.Router, m []int, split bool) []float64 {
	links := topology.EnumerateLinks(t)
	loads := make([]float64, links.Len())
	var path, back []int
	for v := 0; v < g.NumVertices(); v++ {
		adj, w := g.Neighbors(v)
		for i, u := range adj {
			src, dst := m[v], m[u] // each direction once (adjacency is symmetric)
			if src == dst {
				continue
			}
			path = t.Route(path[:0], src, dst)
			bytes := w[i]
			if split && len(path) > 2 {
				// The halving compiles to a product by 0.5; the conversion
				// keeps it from fusing with the sums below.
				bytes = float64(bytes / 2)
				back = t.Route(back[:0], dst, src)
				for h := 0; h+1 < len(back); h++ {
					loads[links.Index(back[h+1], back[h])] += bytes
				}
			}
			for h := 0; h+1 < len(path); h++ {
				loads[links.Index(path[h], path[h+1])] += bytes
			}
		}
	}
	return loads
}
