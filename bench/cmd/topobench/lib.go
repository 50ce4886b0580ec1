package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/metrics"
	"repro/internal/service"
	"repro/internal/topology"
)

// lib-scale is the paper's own use of a mapper: the load-balancing step
// inside a runtime, called as a library. One op is a pass over ten fixed
// jobs from 1k to 262k tasks that between them reach every large-n kernel
// (TopoLB, the refiner, TopoCentLB, the multilevel partitioner, the
// multilevel mapper, both space-filling-curve placers, the hierarchical
// mapper) and the parallel substrate at real GOMAXPROCS. No service code
// runs, so a service-only change predicts no movement here.

// libJob is one job of the pass, in the service's spec vocabulary.
type libJob struct {
	name  string
	job   service.Job
	exact bool // the strategy promises floor/ceil(n/p) tasks per processor
}

func pattern(p string) service.GraphSpec { return service.GraphSpec{Pattern: p} }

func libJobs(smoke bool) []libJob {
	if smoke {
		return []libJob{
			{"topolb", service.Job{Graph: pattern("mesh2d:8,8"), Topology: "torus:8,8", Strategy: "topolb"}, true},
			{"topolb+refine", service.Job{Graph: pattern("mesh2d:8,8"), Topology: "torus:8,8", Strategy: "topolb", Refine: true}, true},
			{"topocentlb", service.Job{Graph: pattern("mesh2d:8,8"), Topology: "torus:8,8", Strategy: "topocentlb"}, true},
			{"partition+topolb", service.Job{Graph: pattern("stencil9:32,32"), Topology: "torus:8,8", Strategy: "topolb"}, false},
			{"multilevel/stencil", service.Job{Graph: pattern("stencil9:64,64"), Topology: "torus:4,4,4", Strategy: "multilevel"}, true},
			{"multilevel/rgg", service.Job{Graph: pattern("rgg:2048,8"), Topology: "torus:8,8", Strategy: "multilevel"}, true},
			{"rcb-sfc", service.Job{Graph: pattern("stencil9:64,64"), Topology: "torus:4,4,4", Strategy: "rcb-sfc"}, true},
			{"sfc", service.Job{Graph: pattern("stencil9:32,32"), Topology: "torus:8,8", Strategy: "sfc"}, true},
			{"hier/rgg", service.Job{Graph: pattern("rgg:1024,8"), Topology: hierMachine, Strategy: "hier"}, true},
			{"hier/stencil", service.Job{Graph: pattern("stencil9:32,16"), Topology: hierMachine, Strategy: "hier"}, true},
		}
	}
	return []libJob{
		{"topolb", service.Job{Graph: pattern("mesh2d:32,32"), Topology: "torus:32,32", Strategy: "topolb"}, true},
		{"topolb+refine", service.Job{Graph: pattern("mesh2d:32,32"), Topology: "torus:32,32", Strategy: "topolb", Refine: true}, true},
		{"topocentlb", service.Job{Graph: pattern("mesh2d:32,32"), Topology: "torus:32,32", Strategy: "topocentlb"}, true},
		{"partition+topolb", service.Job{Graph: pattern("stencil9:128,128"), Topology: "torus:32,16", Strategy: "topolb"}, false},
		{"multilevel/stencil", service.Job{Graph: pattern("stencil9:512,512"), Topology: "torus:16,16,16", Strategy: "multilevel"}, true},
		{"multilevel/rgg", service.Job{Graph: pattern("rgg:65536,8"), Topology: "torus:32,32", Strategy: "multilevel"}, true},
		{"rcb-sfc", service.Job{Graph: pattern("stencil9:512,512"), Topology: "torus:16,16,16", Strategy: "rcb-sfc"}, true},
		{"sfc", service.Job{Graph: pattern("stencil9:256,256"), Topology: "torus:32,32", Strategy: "sfc"}, true},
		{"hier/rgg", service.Job{Graph: pattern("rgg:4096,8"), Topology: hierMachine, Strategy: "hier"}, true},
		{"hier/stencil", service.Job{Graph: pattern("stencil9:80,48"), Topology: hierMachine, Strategy: "hier"}, true},
	}
}

type libScale struct {
	cfg    config
	jobs   []libJob
	inputs []*inputs
	// last holds each job's latest outcome; every run must reproduce the
	// one before it bit for bit (the determinism contract).
	last  []*outcome
	dist0 topology.DistCacheStats
}

func newLibScale(cfg config) *libScale {
	return &libScale{cfg: cfg, jobs: libJobs(cfg.smoke)}
}

func (w *libScale) shape() (int, int) { return 1, 1 }
func (w *libScale) layerRoot() string { return "op" }
func (w *libScale) opSpan() string    { return "op" }
func (w *libScale) validate() error   { return nil }
func (w *libScale) close()            { w.inputs = nil }

// setup materialises the ten jobs' operands and builds the distance
// tables the mappers will look up. The graphs are pinned (rgg draws from
// a fixed graph seed), so hops_per_byte repeats whatever -seed is; the
// seed orders the jobs inside each pass.
func (w *libScale) setup(sc *spanCtx, tl *tally) error {
	w.dist0 = metrics.Counters().DistMatrixCache
	w.inputs = make([]*inputs, len(w.jobs))
	w.last = make([]*outcome, len(w.jobs))
	for i, j := range w.jobs {
		in, err := materialize(sc, j.job)
		if err != nil {
			return fmt.Errorf("%s: %w", j.name, err)
		}
		w.inputs[i] = in
		_, end := sc.span("topology.distmatrix_build")
		topology.CachedDistances(in.topo)
		end()
	}
	return nil
}

// op is one pass: every job once, in an order drawn from the seed.
func (w *libScale) op(_ int, i int64, sc *spanCtx) (time.Duration, error) {
	order := rand.New(rand.NewSource(w.cfg.seed<<20 + i)).Perm(len(w.jobs))
	var firstErr error
	t0 := time.Now()
	for _, k := range order {
		jsc, end := sc.span("bench.job")
		err := w.runJob(jsc, k)
		end()
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("%s: %w", w.jobs[k].name, err)
		}
	}
	return time.Since(t0), firstErr
}

func (w *libScale) runJob(sc *spanCtx, k int) error {
	in := w.inputs[k]
	out, err := compute(sc, in)
	if err != nil {
		return err
	}
	if err := checkPlacement(out.placement, in.graph.NumVertices(), in.topo.Nodes(), w.jobs[k].exact); err != nil {
		return err
	}
	if prev := w.last[k]; prev != nil && math.Float64bits(prev.hopBytes) != math.Float64bits(out.hopBytes) {
		return fmt.Errorf("hop-bytes %v differ from the previous run's %v", out.hopBytes, prev.hopBytes)
	}
	w.last[k] = out
	return nil
}

func (w *libScale) quality() (float64, float64) {
	var hops []float64
	for k, out := range w.last {
		if out != nil {
			hops = append(hops, hopsPerByte(w.inputs[k].graph, out.hopBytes))
		}
	}
	return geomean(hops), 1
}

// layers reports the exact counts of the pass and the parallel scaling:
// one pass at GOMAXPROCS 1 over one at the run's GOMAXPROCS.
func (w *libScale) layers(_ *spanCtx, _ time.Duration, tl *tally) (map[string]float64, error) {
	v := map[string]float64{}
	for k, j := range w.jobs {
		if w.last[k] == nil {
			return nil, fmt.Errorf("%s never ran", j.name)
		}
		switch j.name {
		case "partition+topolb":
			v["partition.edge_cut"], v["partition.imbalance"] = w.last[k].edgeCut, w.last[k].imbalance
		case "topolb+refine":
			v["core.refine_swaps"] = float64(w.last[k].swaps)
		}
	}
	if runtime.NumCPU() >= 2 {
		// A 1-core box would only record another silent 1-core number.
		many, err := w.op(0, 0, nil)
		tl.check(err)
		procs := runtime.GOMAXPROCS(1)
		one, err := w.op(0, 0, nil)
		runtime.GOMAXPROCS(procs)
		tl.check(err)
		v["parallel.scaling_x"] = one.Seconds() / many.Seconds()
	}
	v["topology.distcache_hit_ratio"] = distHitRatio(w.dist0)
	return v, nil
}

// distHitRatio is the distance-matrix cache's hit ratio since from.
func distHitRatio(from topology.DistCacheStats) float64 {
	now := metrics.Counters().DistMatrixCache
	hits, misses := now.Hits-from.Hits, now.Misses-from.Misses
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}
