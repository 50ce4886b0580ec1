package experiments

import (
	"repro/internal/netsim"
	"repro/internal/trace"
)

// netVariant is one row of a latency table: its label, and the fields of
// the network configuration it sets.
type netVariant struct {
	label float64
	cfg   netsim.Config
}

// latencyRows fills t with one row per variant of the network: the label,
// then the average message latency in µs of random placement and of
// TopoLB, replaying iters iterations of the §5.3 scenario (newNetsimSetup)
// in 1 KB packets at bandwidth bytes/s.
func latencyRows(t *Table, iters int, bandwidth float64, variants []netVariant) (*Table, error) {
	s, err := newNetsimSetup()
	if err != nil {
		return nil, err
	}
	prog, err := trace.FromTaskGraph(s.g, iters, 20e-6)
	if err != nil {
		return nil, err
	}
	for _, v := range variants {
		cfg := v.cfg
		cfg.Topology = s.torus
		cfg.LinkBandwidth = bandwidth
		cfg.LinkLatency = 100e-9
		cfg.PacketSize = 1024
		row := []float64{v.label}
		for _, m := range s.mappings[:2] { // random, topolb
			res, err := trace.Replay(prog, m, cfg)
			if err != nil {
				return nil, err
			}
			row = append(row, res.Net.AvgLatency*1e6)
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// ExtrasRouting measures how much of random placement's contention
// penalty adaptive minimal routing recovers in the network simulator —
// and how much of TopoLB's advantage survives smarter routing.
func ExtrasRouting(quick bool) (*Table, error) {
	iters := 200
	if quick {
		iters = 50
	}
	return latencyRows(&Table{
		ID:      "extras-routing",
		Title:   "deterministic vs adaptive routing: avg message latency (us) at 100 MB/s",
		Columns: []string{"adaptive", "random", "topolb"},
		Notes:   "adaptive routing spreads load over minimal paths; TopoLB's advantage persists",
	}, iters, 1e8, []netVariant{{0, netsim.Config{}}, {1, netsim.Config{Adaptive: true}}})
}

// ExtrasWormhole re-runs the paper's core mapping comparison under the
// flit-level wormhole model: how much latency random placement costs
// versus TopoLB when contention comes from head-of-line blocking worms
// holding multiple links, not just per-link queueing. The packet rows
// give the store-and-forward baseline on the same workload.
func ExtrasWormhole(quick bool) (*Table, error) {
	iters := 200
	if quick {
		iters = 50
	}
	return latencyRows(&Table{
		ID:      "extras-wormhole",
		Title:   "packet vs wormhole contention model: avg message latency (us) at 100 MB/s",
		Columns: []string{"wormhole", "random", "topolb"},
		Notes:   "a good mapping is nearly model-independent; random placement's latency depends on the contention model",
	}, iters, 1e8, []netVariant{
		{0, netsim.Config{Mode: netsim.ModePacket, FlitSize: 128}},
		{1, netsim.Config{Mode: netsim.ModeWormhole, FlitSize: 128}},
	})
}

// ExtrasBuffered studies credit-based flow control: tighter downstream
// buffers propagate congestion upstream (backpressure) instead of hiding
// it in unbounded queues. Good mappings barely notice; random placement's
// tail latency grows as buffers shrink.
func ExtrasBuffered(quick bool) (*Table, error) {
	iters := 100
	if quick {
		iters = 30
	}
	var variants []netVariant
	for _, buffers := range []int{1, 2, 4, 0} {
		variants = append(variants, netVariant{float64(buffers), netsim.Config{BufferPackets: buffers}})
	}
	return latencyRows(&Table{
		ID:      "extras-buffered",
		Title:   "credit-based flow control: avg latency (us) vs buffer depth at 200 MB/s",
		Columns: []string{"buffers", "random", "topolb"},
		Notes:   "buffers = packet credits per (link,VC); 0 = unbounded queues",
	}, iters, 2e8, variants)
}
