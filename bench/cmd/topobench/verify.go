package main

import (
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/taskgraph"
	"repro/internal/topology"
)

// checkPlacement verifies a placement of n tasks on p processors: every
// entry in range; a bijection when n == p; otherwise every processor
// used, and — for strategies that promise exact capacities — floor(n/p)
// or ceil(n/p) tasks on each.
func checkPlacement(placement []int, n, p int, exact bool) error {
	if len(placement) != n {
		return fmt.Errorf("placement has %d entries for %d tasks", len(placement), n)
	}
	count := make([]int, p)
	for v, proc := range placement {
		if proc < 0 || proc >= p {
			return fmt.Errorf("task %d placed on processor %d, out of [0,%d)", v, proc, p)
		}
		count[proc]++
	}
	lo, hi := n/p, (n+p-1)/p
	for proc, c := range count {
		switch {
		case n == p && c != 1:
			return fmt.Errorf("processor %d holds %d tasks in a one-to-one mapping", proc, c)
		case c == 0:
			return fmt.Errorf("processor %d left empty", proc)
		case exact && (c < lo || c > hi):
			return fmt.Errorf("processor %d holds %d tasks, capacity is %d..%d", proc, c, lo, hi)
		}
	}
	return nil
}

// checkMapBody verifies one /v1/map response body against the operands
// the harness built for the same job: it decodes, the placement is valid,
// and the reported hop-bytes equal the harness's own core.HopBytes bit for
// bit. It returns the decoded result.
func checkMapBody(body []byte, g *taskgraph.Graph, t topology.Topology, exact bool) (*service.JobResult, error) {
	var res service.JobResult
	if err := json.Unmarshal(body, &res); err != nil {
		return nil, fmt.Errorf("body does not decode: %w", err)
	}
	if err := checkPlacement(res.Mapping, g.NumVertices(), t.Nodes(), exact); err != nil {
		return nil, err
	}
	want := core.HopBytes(g, t, res.Mapping)
	if math.Float64bits(want) != math.Float64bits(res.HopBytes) {
		return nil, fmt.Errorf("reported hop_bytes %v, harness computes %v", res.HopBytes, want)
	}
	return &res, nil
}
