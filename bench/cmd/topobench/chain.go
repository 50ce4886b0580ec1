package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/partition"
	"repro/internal/service"
	"repro/internal/taskgraph"
	"repro/internal/topology"
)

// The library chain: the public calls a mapping job decomposes into, each
// wrapped in a span named after its layer. lib-scale runs its jobs through
// it directly; the service workloads replay sampled requests through it,
// because the service is contractually byte-identical to these calls and
// its interior cannot be spanned from outside.

// inputs are a job's materialised operands.
type inputs struct {
	job   service.Job
	topo  topology.Topology
	graph *taskgraph.Graph
	strat core.Strategy // coordinates injected, refinement not yet wrapped
}

// outcome is what the chain computes for a job.
type outcome struct {
	placement          []int
	hopBytes           float64
	edgeCut, imbalance float64
	swaps              int
	report             *metrics.Report
	strategy           string
}

// decodeJob parses a request body the way the service does: strictly.
func decodeJob(sc *spanCtx, body []byte) (service.Job, error) {
	_, end := sc.span("json.decode")
	defer end()
	var job service.Job
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := dec.Decode(&job)
	return job, err
}

// materialize turns a job spec into operands: topology, task graph,
// coordinates and strategy. This is the work the service does for every
// request, cache hit or not, before it can name the job's content key.
func materialize(sc *spanCtx, job service.Job) (*inputs, error) {
	job.Topology = strings.ToLower(strings.TrimSpace(job.Topology))
	job.Strategy = strings.ToLower(strings.TrimSpace(job.Strategy))
	job.Graph.Pattern = strings.ToLower(strings.TrimSpace(job.Graph.Pattern))
	if job.Strategy == "" {
		job.Strategy = "topolb"
	}
	if job.Seed == 0 {
		job.Seed = 1
	}
	in := &inputs{job: job}
	var err error

	name := "cliutil.parse_topology"
	if strings.HasPrefix(job.Topology, "hier:") {
		name = "hiertopo.parse"
	}
	_, end := sc.span(name)
	in.topo, err = cliutil.ParseAnyTopology(job.Topology)
	end()
	if err != nil {
		return nil, err
	}

	_, end = sc.span("cliutil.parse_strategy")
	in.strat, err = cliutil.ParseStrategy(job.Strategy, job.Seed)
	end()
	if err != nil {
		return nil, err
	}

	if job.Graph.Pattern == "" {
		_, end = sc.span("taskgraph.read_json")
		in.graph, err = taskgraph.ReadJSON(bytes.NewReader(job.Graph.Inline))
		end()
		return in, err
	}
	msg, gseed := job.Graph.MsgBytes, job.Graph.Seed
	if msg <= 0 {
		msg = 1e5
	}
	if gseed == 0 {
		gseed = job.Seed
	}
	_, end = sc.span("cliutil.parse_pattern")
	in.graph, err = cliutil.ParsePattern(job.Graph.Pattern, msg, gseed)
	end()
	if err != nil {
		return nil, err
	}
	_, end = sc.span("cliutil.pattern_coords")
	coords := cliutil.PatternCoords(job.Graph.Pattern, gseed)
	end()
	_, end = sc.span("cliutil.parse_strategy")
	in.strat = cliutil.WithCoords(in.strat, coords)
	end()
	return in, nil
}

// strategySpan names the span of a strategy's Map/Place call.
func strategySpan(s core.Strategy) string {
	switch s.(type) {
	case core.TopoLB:
		return "core.topolb"
	case core.TopoCentLB:
		return "core.topocentlb"
	case core.MultilevelMap:
		return "core.multilevelmap"
	case core.HierMap:
		return "core.hiermap"
	case core.SFC:
		return "core.sfc"
	case core.RCBSFC:
		return "core.rcbsfc"
	}
	return "core.other"
}

// mapGraph runs the strategy on a one-task-per-processor graph, then the
// refiner when the job asks for it (the two calls RefineTopoLB.Map makes).
func mapGraph(sc *spanCtx, in *inputs, g *taskgraph.Graph, out *outcome) (core.Mapping, error) {
	_, end := sc.span(strategySpan(in.strat))
	m, err := in.strat.Map(g, in.topo)
	end()
	if err != nil {
		return nil, err
	}
	if in.job.Refine {
		_, end = sc.span("core.refine")
		out.swaps = core.Refine(g, in.topo, m, 8)
		end()
	}
	return m, nil
}

// compute maps the job and evaluates the mapping: the calls topomap.MapTasks
// and the service's compute step make, spelled out so each gets a span.
func compute(sc *spanCtx, in *inputs) (*outcome, error) {
	g, t := in.graph, in.topo
	n, p := g.NumVertices(), t.Nodes()
	out := &outcome{strategy: in.strat.Name()}
	if in.job.Refine {
		out.strategy += "+Refine"
	}
	switch placer, direct := in.strat.(core.Placer); {
	case n < p:
		return nil, fmt.Errorf("%d tasks cannot fill %d processors", n, p)
	case n == p:
		m, err := mapGraph(sc, in, g, out)
		if err != nil {
			return nil, err
		}
		out.placement = m
	case direct && !in.job.Refine:
		_, end := sc.span(strategySpan(in.strat))
		placement, err := placer.Place(g, t)
		end()
		if err != nil {
			return nil, err
		}
		out.placement = placement
		groups := &partition.Result{Assign: placement, K: p}
		_, end = sc.span("partition.quotient")
		_, err = partition.Quotient(g, groups)
		end()
		if err != nil {
			return nil, err
		}
		out.edgeCut = groups.EdgeCut(g)
	default:
		_, end := sc.span("partition.multilevel")
		groups, err := partition.Multilevel{Seed: in.job.Seed}.Partition(g, p)
		end()
		if err != nil {
			return nil, err
		}
		_, end = sc.span("partition.quotient")
		q, err := partition.Quotient(g, groups)
		end()
		if err != nil {
			return nil, err
		}
		m, err := mapGraph(sc, in, q, out)
		if err != nil {
			return nil, err
		}
		out.placement = make([]int, n)
		for v, grp := range groups.Assign {
			out.placement[v] = m[grp]
		}
		out.edgeCut = groups.EdgeCut(g)
	}
	if n > p {
		out.imbalance = loadImbalance(g, out.placement, p)
	}

	_, end := sc.span("core.hopbytes")
	out.hopBytes = core.HopBytes(g, t, out.placement)
	end()
	if in.job.Metrics {
		_, end = sc.span("metrics.evaluate")
		rep, err := metrics.Evaluate(g, t, out.placement)
		end()
		if err != nil {
			return nil, err
		}
		out.report = rep
	}
	return out, nil
}

// loadImbalance is the busiest processor's load over the average.
func loadImbalance(g *taskgraph.Graph, placement []int, p int) float64 {
	loads := make([]float64, p)
	for v, proc := range placement {
		loads[proc] += g.VertexWeight(v)
	}
	maxLoad, total := 0.0, 0.0
	for _, l := range loads {
		total += l
		if l > maxLoad {
			maxLoad = l
		}
	}
	if total <= 0 {
		return 0
	}
	return maxLoad / (total / float64(p))
}

// encodeOutcome marshals the chain's result in the service's wire form;
// the bytes must equal the body the service returned for the same job.
func encodeOutcome(sc *spanCtx, in *inputs, out *outcome) ([]byte, error) {
	res := service.JobResult{
		Strategy:  out.strategy,
		Topology:  in.topo.Name(),
		Graph:     in.graph.Name(),
		Tasks:     in.graph.NumVertices(),
		Mapping:   out.placement,
		HopBytes:  out.hopBytes,
		EdgeCut:   out.edgeCut,
		Imbalance: out.imbalance,
		Report:    out.report,
	}
	if total := in.graph.TotalComm(); total > 0 {
		res.HopsPerByte = out.hopBytes / total
	}
	_, end := sc.span("json.encode")
	defer end()
	return json.Marshal(&res)
}

// hopsPerByte is the quality figure of one placement.
func hopsPerByte(g *taskgraph.Graph, hopBytes float64) float64 {
	return hopBytes / g.TotalComm()
}

// The hierarchical machine of the hier job classes.
const hierMachine = "hier:pod:2/rack:4/node:8:torus-2x4"
