package main

import (
	"bytes"
	"fmt"
	"net/http"
	"time"

	"repro/internal/service"
)

// svc-warm: the same server, a primed catalogue of jobs, then Zipf(1.1)
// repeats — every request is a result-cache hit. The service and the
// operand materialisation it does before it can name a job (cliutil,
// taskgraph, topology) do all the work; core does none. This is the
// workload a key-before-build change must move, and the read-side twin of
// svc-cold's cache writes.

const (
	zipfS      = 1.1
	warmBlock  = 512 // requests per block; Zipf counts are exact per block
	warmBlocks = 32  // blocks drawn during set-up
)

// warmShapes are the (graph, machine) pairs of the catalogue, from 256 to
// 16 384 tasks: the cost of a hit grows with the operands the service
// rebuilds for it.
func warmShapes(smoke bool) []service.Job {
	if smoke {
		return []service.Job{
			{Graph: pattern("mesh2d:8,8"), Topology: "torus:8,8"},
			{Graph: service.GraphSpec{Inline: inlineGraph(64)}, Topology: "torus:8,8"},
			{Graph: pattern("stencil9:16,16"), Topology: "torus:4,4"},
			{Graph: pattern("stencil9:32,16"), Topology: hierMachine},
		}
	}
	return []service.Job{
		{Graph: pattern("mesh2d:16,16"), Topology: "torus:16,16"},
		{Graph: pattern("mesh3d:8,8,8"), Topology: "torus:8,8,8"},
		{Graph: service.GraphSpec{Inline: inlineGraph(256)}, Topology: "torus:16,16"},
		{Graph: pattern("stencil9:64,64"), Topology: "torus:16,16"},
		{Graph: pattern("stencil9:128,128"), Topology: "torus:16,16"},
		{Graph: pattern("stencil9:80,48"), Topology: hierMachine},
	}
}

// warmStrategies lists the strategies of the catalogue. The hierarchical
// machine takes only its own mapper: the flat ones cost ~0.5 s each to
// prime there, which would make set-up, not hits, what the run measures.
func warmStrategies(topology string) []string {
	if topology == hierMachine {
		return []string{"hier"}
	}
	return []string{"topolb", "topocentlb", "sfc", "rcb-sfc"}
}

// warmCatalogue is strategies x shapes x three job seeds, interleaved so
// that consecutive Zipf ranks cycle through the shapes: the popular head
// of the distribution then holds small and large jobs alike.
func warmCatalogue(smoke bool) []service.Job {
	var jobs []service.Job
	shapes := warmShapes(smoke)
	for seed := int64(1); seed <= 3; seed++ {
		for s := 0; s < 4; s++ {
			for _, shape := range shapes {
				strategies := warmStrategies(shape.Topology)
				if s >= len(strategies) {
					continue
				}
				job := shape
				job.Strategy, job.Seed = strategies[s], seed
				jobs = append(jobs, job)
			}
		}
	}
	return jobs
}

type svcWarm struct {
	mapService
	catalogue []service.Job
	payloads  [][]byte
	primed    [][]byte // the body each job returned when it was computed
}

func newSvcWarm(cfg config) *svcWarm {
	w := &svcWarm{mapService: mapService{cfg: cfg}, catalogue: warmCatalogue(cfg.smoke)}
	for _, job := range w.catalogue {
		w.payloads = append(w.payloads, mustJSON(job))
	}
	return w
}

// newSequence draws Zipf-distributed repeats of the catalogue: rank r
// (catalogue order) appears in every block in proportion to 1/r^1.1.
func (w *svcWarm) newSequence(base int64, blocks int) *sequence {
	block := warmBlock
	if w.cfg.smoke {
		block = 64
	}
	var comp []int
	for rank, n := range zipfCounts(len(w.catalogue), block, zipfS) {
		for range n {
			comp = append(comp, rank)
		}
	}
	return newSequence(w.cfg.seed+base, comp, blocks, func(class int, _ int64) []byte { return w.payloads[class] })
}

func (w *svcWarm) setup(sc *spanCtx, tl *tally) error {
	if err := w.buildTables(sc, w.catalogue); err != nil {
		return err
	}
	blocks := warmBlocks
	if w.cfg.smoke {
		blocks = 2
	}
	w.seq = w.newSequence(0, blocks)
	srv, err := startServer(w.cfg.clients)
	if err != nil {
		return err
	}
	w.srv = srv

	// Prime: compute every catalogue job once, keep and verify its body.
	w.primed = make([][]byte, len(w.catalogue))
	w.hops = make([]float64, len(w.catalogue))
	errs := make([]error, len(w.catalogue))
	fanOut(w.cfg.clients, len(w.catalogue), func(c, k int) {
		errs[k] = w.prime(c, k)
	})
	for k, err := range errs {
		if err != nil {
			return fmt.Errorf("catalogue job %d (%s on %s): %w", k, w.catalogue[k].Strategy, w.catalogue[k].Topology, err)
		}
		tl.check(nil)
	}
	w.snap0 = srv.srv.Snapshot()
	return nil
}

func (w *svcWarm) prime(c, k int) error {
	status, body, _, err := w.srv.post(c, "/v1/map", w.payloads[k])
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %s", status, body)
	}
	in, err := w.ops.of(w.catalogue[k])
	if err != nil {
		return err
	}
	// Only the curve placers and the hierarchical mapper promise exact
	// per-processor counts; the partitioner balances load within a slack.
	exact := w.catalogue[k].Strategy != "topolb" && w.catalogue[k].Strategy != "topocentlb"
	res, err := checkMapBody(body, in.graph, in.topo, exact || in.graph.NumVertices() == in.topo.Nodes())
	if err != nil {
		return err
	}
	w.primed[k] = bytes.Clone(body)
	w.hops[k] = hopsPerByte(in.graph, res.HopBytes)
	return nil
}

func (w *svcWarm) op(c int, i int64, _ *spanCtx) (time.Duration, error) {
	req := w.seq.at(i)
	status, body, lat, err := w.srv.post(c, "/v1/map", req.payload)
	if err != nil {
		return lat, err
	}
	if status != http.StatusOK {
		return lat, fmt.Errorf("catalogue job %d: status %d: %s", req.class, status, body)
	}
	return lat, w.checkBody(req, body)
}

// checkBody: a hit must return the primed body byte for byte (which was
// decoded and verified when it was primed).
func (w *svcWarm) checkBody(req request, body []byte) error {
	if !bytes.Equal(body, w.primed[req.class]) {
		return fmt.Errorf("catalogue job %d: body differs from the primed body", req.class)
	}
	return nil
}

// validate: a warm run that missed the cache measured something else.
func (w *svcWarm) validate() error {
	now := w.srv.srv.Snapshot()
	if misses := now.ResultCache.Misses - w.snap0.ResultCache.Misses; misses != 0 {
		return fmt.Errorf("svc-warm saw %d result-cache misses; every request must hit", misses)
	}
	return nil
}

func (w *svcWarm) layers(sc *spanCtx, budget time.Duration, tl *tally) (map[string]float64, error) {
	return w.sampleAndReplay(sc, budget, tl, w.newSequence(1, 1), false, w.checkBody)
}
