package experiments

import (
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/taskgraph"
	"repro/internal/topology"
	"repro/internal/trace"
)

// netsimSetup builds the §5.3 scenario: a 2D-Jacobi pattern on 64 chares
// mapped onto a 64-node (4,4,4) 3D torus by random placement (GreedyLB),
// TopoLB, and TopoCentLB; traces are replayed through the discrete-event
// network simulator at each channel bandwidth.
type netsimSetup struct {
	g     *taskgraph.Graph
	torus *topology.Torus
	// mappings are the table's value columns: random, topolb, topocentlb.
	mappings []core.Mapping
}

func newNetsimSetup() (*netsimSetup, error) {
	s := &netsimSetup{
		g:     taskgraph.Mesh2D(8, 8, 4e3), // 4 KB messages
		torus: topology.MustTorus(4, 4, 4),
	}
	for _, strat := range []core.Strategy{core.Random{Seed: 1}, core.TopoLB{}, core.TopoCentLB{}} {
		m, err := strat.Map(s.g, s.torus)
		if err != nil {
			return nil, err
		}
		s.mappings = append(s.mappings, m)
	}
	return s, nil
}

// jobs builds the (bandwidth × strategy) sweep over a shared trace of
// iters iterations, in row-major order: all strategies of bandwidths[0],
// then bandwidths[1], ... — matching the table rows netsimTable emits.
func (s *netsimSetup) jobs(bandwidths []float64, iters int) ([]SimJob, error) {
	p, err := trace.FromTaskGraph(s.g, iters, 20e-6)
	if err != nil {
		return nil, err
	}
	jobs := make([]SimJob, 0, len(bandwidths)*len(s.mappings))
	for _, bw := range bandwidths {
		for _, m := range s.mappings {
			jobs = append(jobs, SimJob{
				Prog:    p,
				Mapping: m,
				Cfg: netsim.Config{
					Topology:      s.torus,
					LinkBandwidth: bw,
					LinkLatency:   100e-9,
					PacketSize:    1024,
				},
			})
		}
	}
	return jobs, nil
}

func bandwidthPoints(quick bool, lo, hi int) []float64 {
	var pts []float64
	step := 1
	if quick {
		step = 3
	}
	for b := lo; b <= hi; b += step {
		pts = append(pts, float64(b)*1e8)
	}
	return pts
}

// netsimTable renders one metric across the bandwidth sweep.
func netsimTable(id, title string, quick bool, lo, hi, iters int,
	metric func(trace.Result) float64) (*Table, error) {
	s, err := newNetsimSetup()
	if err != nil {
		return nil, err
	}
	if quick {
		iters /= 10
		if iters < 20 {
			iters = 20
		}
	}
	t := &Table{
		ID:      id,
		Title:   title,
		Columns: []string{"bw_100MBps", "random", "topolb", "topocentlb"},
		Notes:   "2D-Jacobi (8x8, 4KB msgs) on a (4,4,4) 3D torus via discrete-event simulation",
	}
	bws := bandwidthPoints(quick, lo, hi)
	jobs, err := s.jobs(bws, iters)
	if err != nil {
		return nil, err
	}
	// The whole sweep is independent (strategy × bandwidth), so fan it out
	// rather than simulating bandwidth points one at a time.
	results, err := RunSims(jobs)
	if err != nil {
		return nil, err
	}
	for r, bw := range bws {
		row := results[r*len(s.mappings):] // one result per mapping
		t.Rows = append(t.Rows, []float64{
			bw / 1e8,
			metric(row[0]),
			metric(row[1]),
			metric(row[2]),
		})
	}
	return t, nil
}

// Fig7 regenerates Figure 7: average message latency (µs) vs channel
// bandwidth. Random placement's latency explodes as congestion sets in at
// low bandwidth; TopoLB is the most resilient.
func Fig7(quick bool) (*Table, error) {
	return netsimTable("fig7",
		"2D-mesh on 64-node 3D-torus: average message latency (us) vs bandwidth",
		quick, 1, 10, 200,
		func(r trace.Result) float64 { return r.Net.AvgLatency * 1e6 })
}

// Fig8 regenerates Figure 8, the zoom of Figure 7 in the uncongested
// high-bandwidth region, where TopoLB still has the lowest latency.
func Fig8(quick bool) (*Table, error) {
	return netsimTable("fig8",
		"zoom of fig7, uncongested region: average message latency (us)",
		quick, 5, 10, 200,
		func(r trace.Result) float64 { return r.Net.AvgLatency * 1e6 })
}

// Fig9 regenerates Figure 9: total completion time (ms) of 2000
// iterations vs bandwidth. At low bandwidth random placement takes more
// than twice TopoLB's time; TopoLB outperforms TopoCentLB by ~10–25 %.
func Fig9(quick bool) (*Table, error) {
	return netsimTable("fig9",
		"completion time (ms) of 2000 iterations vs bandwidth",
		quick, 1, 5, 2000,
		func(r trace.Result) float64 { return r.CompletionTime * 1e3 })
}
