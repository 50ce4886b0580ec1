// Package emulator provides a fast BlueGene-style machine model for
// iterative nearest-neighbor applications, standing in for the paper's
// BlueGene runs (Table 1, Figures 10–11) and the Charm++ BlueGene
// emulator. The paper attributes the performance gap between mappings to
// link contention: "if packets travel over a large number of hops, the
// average load on the links increases, which increases contention".
//
// The emulator makes that mechanism explicit. Each iteration is a
// bulk-synchronous step:
//
//	compute phase = max over processors of their chares' compute time
//	comm phase    = maxLinkBytes/bandwidth + maxHops·hopLatency
//	               + perMessage overhead on the busiest processor
//
// where maxLinkBytes is found by routing every message of the iteration
// with the topology's deterministic routing and accumulating per-link byte
// loads: metrics.RoutedLoads, the walk metrics.Evaluate reads too.
// Steady-state iterations are identical, so one iteration is analyzed and
// scaled — which is what lets the emulator sweep hundreds of processors ×
// thousands of iterations instantly. Absolute times are model times, not
// BlueGene wall clock; orderings and growth trends are the reproducible
// quantities.
package emulator

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/taskgraph"
	"repro/internal/topology"
)

// Machine describes the emulated hardware.
type Machine struct {
	// Topo is the interconnect; its Router provides deterministic routes.
	Topo topology.Router
	// LinkBandwidth is bytes/second per directed link. BlueGene/L torus
	// links were ~175 MB/s; that is the natural default for experiments.
	LinkBandwidth float64
	// HopLatency is seconds per traversed link.
	HopLatency float64
	// MsgOverhead is per-message software overhead, charged on the
	// sending processor's communication phase.
	MsgOverhead float64
	// SplitRouting approximates BlueGene's adaptive routing hardware by
	// spreading each message's bytes over two complementary minimal
	// paths: the forward dimension-ordered route and the reverse of the
	// destination's route back (which corrects dimensions in the opposite
	// order). This halves worst-case corridor pile-ups for multi-hop
	// messages; single-hop messages have only one minimal path and are
	// unaffected.
	SplitRouting bool
}

func (m *Machine) validate() error {
	if m.Topo == nil {
		return fmt.Errorf("emulator: Machine.Topo is required")
	}
	if m.LinkBandwidth <= 0 {
		return fmt.Errorf("emulator: LinkBandwidth must be positive")
	}
	if m.HopLatency < 0 || m.MsgOverhead < 0 {
		return fmt.Errorf("emulator: negative latency or overhead")
	}
	return nil
}

// Result reports an emulated run.
type Result struct {
	// TotalTime is Iterations × IterationTime.
	TotalTime float64
	// IterationTime = ComputePhase + CommPhase.
	IterationTime float64
	ComputePhase  float64
	CommPhase     float64
	// MaxLinkBytes is the busiest directed link's bytes per iteration —
	// the contention bottleneck.
	MaxLinkBytes float64
	// AvgLinkBytes averages over all directed links.
	AvgLinkBytes float64
	// MaxHops is the longest route any message takes.
	MaxHops int
	// AvgHops is the byte-weighted mean hop count (hops-per-byte).
	AvgHops float64
}

// RunIterative emulates iterations of the canonical benchmark: every
// chare computes for computePerUnit × its vertex weight, then sends each
// task-graph neighbor the edge weight in bytes (one message per direction
// per iteration). mapping[v] is the processor of chare v; multiple chares
// may share a processor.
func (m *Machine) RunIterative(g *taskgraph.Graph, mapping []int, iterations int, computePerUnit float64) (Result, error) {
	if err := m.validate(); err != nil {
		return Result{}, err
	}
	if iterations < 1 {
		return Result{}, fmt.Errorf("emulator: iterations must be >= 1, got %d", iterations)
	}
	if computePerUnit < 0 {
		return Result{}, fmt.Errorf("emulator: negative compute time")
	}
	n := g.NumVertices()
	if len(mapping) != n {
		return Result{}, fmt.Errorf("emulator: mapping has %d entries for %d chares", len(mapping), n)
	}
	procs := m.Topo.Nodes()
	for v, p := range mapping {
		if p < 0 || p >= procs {
			return Result{}, fmt.Errorf("emulator: chare %d on processor %d, out of [0,%d)", v, p, procs)
		}
	}

	// One pass over the chares: compute serializes per processor, every
	// directed message counts against its sender, and hop counts come
	// from the distance oracle (a route has Distance+1 nodes).
	procCompute := make([]float64, procs)
	procMsgs := make([]int, procs)
	dists := topology.NewDists(m.Topo)
	maxHops := 0
	hopBytes, totalBytes := 0.0, 0.0
	for v := 0; v < n; v++ {
		src := mapping[v]
		procCompute[src] += float64(computePerUnit * g.VertexWeight(v))
		adj, w := g.Neighbors(v)
		procMsgs[src] += len(adj)
		for i, u := range adj {
			totalBytes += w[i]
			hops := dists.Dist(src, mapping[u])
			if hops == 0 {
				continue
			}
			if hops > maxHops {
				maxHops = hops
			}
			hopBytes += float64(w[i] * float64(hops))
		}
	}

	loads := metrics.RoutedLoads(g, m.Topo, mapping, m.SplitRouting)
	computePhase, maxLink, sumLink, maxMsgs := 0.0, 0.0, 0.0, 0
	for p, c := range procCompute {
		if c > computePhase {
			computePhase = c
		}
		if procMsgs[p] > maxMsgs {
			maxMsgs = procMsgs[p]
		}
	}
	for _, b := range loads {
		sumLink += b
		if b > maxLink {
			maxLink = b
		}
	}
	commPhase := maxLink/m.LinkBandwidth + float64(float64(maxHops)*m.HopLatency) + float64(float64(maxMsgs)*m.MsgOverhead)

	res := Result{
		ComputePhase: computePhase,
		CommPhase:    commPhase,
		MaxLinkBytes: maxLink,
		MaxHops:      maxHops,
	}
	if len(loads) > 0 {
		res.AvgLinkBytes = sumLink / float64(len(loads))
	}
	if totalBytes > 0 {
		res.AvgHops = hopBytes / totalBytes
	}
	res.IterationTime = computePhase + commPhase
	res.TotalTime = float64(iterations) * res.IterationTime
	return res, nil
}

// DefaultMachine returns a BlueGene/L-flavored machine on the given
// topology: 175 MB/s links, 100 ns per hop, 5 µs per-message overhead.
func DefaultMachine(t topology.Router) *Machine {
	return &Machine{
		Topo:          t,
		LinkBandwidth: 175e6,
		HopLatency:    100e-9,
		MsgOverhead:   5e-6,
	}
}
