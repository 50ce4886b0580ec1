package main

import (
	"bytes"
	"fmt"
	"net/http"
	"time"

	"repro/internal/service"
)

// svc-cold: POST /v1/map where every request is a content key the server
// has never seen (a fresh job seed), so core and partition do nearly all
// the work and the result cache is pure write-and-evict traffic that
// never hits. Kernel, refiner, parallel-substrate and shard/queue changes
// show here; a change to the cache-hit path must not.

// coldClass is one job class of the mix. perBlock is its share of every
// block of the request sequence; the shares are chosen so the median
// falls inside the 256-processor TopoLB family and p90 inside the
// partitioned TopoLB class, away from the steps between classes.
type coldClass struct {
	name     string
	job      service.Job // the job seed is filled in per request
	perBlock int
	exact    bool
	seeded   bool // the graph itself is drawn from the job seed
}

func coldClasses(smoke bool) []coldClass {
	if smoke {
		return []coldClass{
			{"topolb", service.Job{Graph: pattern("mesh2d:8,8"), Topology: "torus:8,8", Strategy: "topolb"}, 3, true, false},
			{"topocentlb", service.Job{Graph: pattern("mesh2d:8,8"), Topology: "torus:8,8", Strategy: "topocentlb"}, 2, true, false},
			{"topolb+refine", service.Job{Graph: pattern("mesh2d:8,8"), Topology: "torus:8,8", Strategy: "topolb", Refine: true}, 1, true, false},
			{"topolb+metrics", service.Job{Graph: pattern("mesh2d:8,8"), Topology: "torus:8,8", Strategy: "topolb", Metrics: true}, 1, true, false},
			{"leanmd", service.Job{Graph: pattern("leanmd:64"), Topology: "torus:8,8", Strategy: "topolb"}, 1, false, true},
			{"mesh3d", service.Job{Graph: pattern("mesh3d:4,4,4"), Topology: "torus:4,4,4", Strategy: "topolb"}, 1, true, false},
			{"inline", service.Job{Graph: service.GraphSpec{Inline: inlineGraph(64)}, Topology: "torus:8,8", Strategy: "topolb"}, 1, true, false},
			{"partition+topolb", service.Job{Graph: pattern("stencil9:16,16"), Topology: "torus:4,4", Strategy: "topolb"}, 1, false, false},
			{"partition+rcb-sfc", service.Job{Graph: pattern("stencil9:16,16"), Topology: "torus:4,4", Strategy: "rcb-sfc"}, 1, true, false},
		}
	}
	return []coldClass{
		{"topolb", service.Job{Graph: pattern("mesh2d:16,16"), Topology: "torus:16,16", Strategy: "topolb"}, 8, true, false},
		{"topocentlb", service.Job{Graph: pattern("mesh2d:16,16"), Topology: "torus:16,16", Strategy: "topocentlb"}, 5, true, false},
		{"topolb+refine", service.Job{Graph: pattern("mesh2d:16,16"), Topology: "torus:16,16", Strategy: "topolb", Refine: true}, 4, true, false},
		{"topolb+metrics", service.Job{Graph: pattern("mesh2d:16,16"), Topology: "torus:16,16", Strategy: "topolb", Metrics: true}, 3, true, false},
		{"leanmd", service.Job{Graph: pattern("leanmd:256"), Topology: "torus:16,16", Strategy: "topolb"}, 1, false, true},
		{"mesh3d", service.Job{Graph: pattern("mesh3d:8,8,8"), Topology: "torus:8,8,8", Strategy: "topolb"}, 3, true, false},
		{"inline", service.Job{Graph: service.GraphSpec{Inline: inlineGraph(256)}, Topology: "torus:16,16", Strategy: "topolb"}, 3, true, false},
		{"partition+topolb", service.Job{Graph: pattern("stencil9:64,64"), Topology: "torus:16,16", Strategy: "topolb"}, 3, false, false},
		{"partition+rcb-sfc", service.Job{Graph: pattern("stencil9:64,64"), Topology: "torus:16,16", Strategy: "rcb-sfc"}, 2, true, false},
	}
}

const (
	// pinnedSeed is the job seed of each class's reference request, whose
	// mapping feeds hops_per_byte; timed requests count up from
	// firstTimedSeed, so no two requests of a run share a content key.
	pinnedSeed     = 1
	firstTimedSeed = 1000
	// cacheEntries is the default-configured server's result-cache bound.
	// Set-up fills the cache with that many throwaway keys, so the timed
	// phase starts in the steady state of a long-running server under
	// cold traffic: every insert evicts.
	cacheEntries = 1024
	coldPrepared = 48 // blocks of requests marshalled during set-up
)

type svcCold struct {
	mapService
	classes []coldClass
	refs    [][]byte // the body of each class's pinned reference job
}

func newSvcCold(cfg config) *svcCold {
	return &svcCold{mapService: mapService{cfg: cfg}, classes: coldClasses(cfg.smoke)}
}

// request marshals the class's job with the ordinal-th timed job seed of
// this run. base separates the sequences of one run from each other.
func (w *svcCold) newSequence(base int64, blocks int) *sequence {
	var comp []int
	for k, c := range w.classes {
		for range c.perBlock {
			comp = append(comp, k)
		}
	}
	first := firstTimedSeed + (w.cfg.seed&0xFFFFF)<<32 + base<<28
	return newSequence(w.cfg.seed+base, comp, blocks, func(class int, ordinal int64) []byte {
		job := w.classes[class].job
		job.Seed = first + ordinal
		return mustJSON(job)
	})
}

func (w *svcCold) setup(sc *spanCtx, tl *tally) error {
	jobs := make([]service.Job, len(w.classes))
	for k, c := range w.classes {
		jobs[k] = c.job
		jobs[k].Seed = pinnedSeed
	}
	if err := w.buildTables(sc, jobs); err != nil {
		return err
	}
	blocks := coldPrepared
	if w.cfg.smoke {
		blocks = 4
	}
	w.seq = w.newSequence(0, blocks)
	srv, err := startServer(w.cfg.clients)
	if err != nil {
		return err
	}
	w.srv = srv

	// Prime: each class's pinned reference job (which also feeds
	// hops_per_byte), then the throwaway keys that fill the cache.
	w.hops, w.refs = w.hops[:0], w.refs[:0]
	for k, job := range jobs {
		status, body, _, err := srv.post(0, "/v1/map", mustJSON(job))
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d: %s", status, body)
		}
		var hops float64
		if err == nil {
			hops, err = w.verify(k, job, body)
		}
		if err != nil {
			return fmt.Errorf("reference job %s: %w", w.classes[k].name, err)
		}
		tl.check(nil)
		w.hops = append(w.hops, hops)
		w.refs = append(w.refs, bytes.Clone(body))
	}
	filler := service.Job{Graph: pattern("ring:16"), Topology: "torus:4,4", Strategy: "identity"}
	fills := cacheEntries
	if w.cfg.smoke {
		fills = 32
	}
	errs := make([]error, w.cfg.clients)
	fanOut(w.cfg.clients, fills, func(c, k int) {
		job := filler
		job.Seed = int64(k + 1)
		status, body, _, err := srv.post(c, "/v1/map", mustJSON(job))
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("filler: status %d: %s", status, body)
		}
		if err != nil {
			errs[c] = err
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	w.snap0 = srv.srv.Snapshot()
	return nil
}

// verify checks one response of class k and returns its hops per byte.
func (w *svcCold) verify(k int, job service.Job, body []byte) (float64, error) {
	var in *inputs
	var err error
	if w.classes[k].seeded {
		in, err = materialize(nil, job)
	} else {
		in, err = w.ops.of(job)
	}
	if err != nil {
		return 0, err
	}
	res, err := checkMapBody(body, in.graph, in.topo, w.classes[k].exact)
	if err != nil {
		return 0, err
	}
	return hopsPerByte(in.graph, res.HopBytes), nil
}

func (w *svcCold) op(c int, i int64, _ *spanCtx) (time.Duration, error) {
	req := w.seq.at(i)
	status, body, lat, err := w.srv.post(c, "/v1/map", req.payload)
	if err != nil {
		return lat, err
	}
	if status != http.StatusOK {
		return lat, fmt.Errorf("%s: status %d: %s", w.classes[req.class].name, status, body)
	}
	return lat, w.checkBody(req, body)
}

func (w *svcCold) checkBody(req request, body []byte) error {
	job, err := decodeJob(nil, req.payload)
	if err != nil {
		return err
	}
	if _, err := w.verify(req.class, job, body); err != nil {
		return fmt.Errorf("%s seed %d: %w", w.classes[req.class].name, job.Seed, err)
	}
	return nil
}

// validate: a cold run that hit the cache measured something else.
func (w *svcCold) validate() error {
	now := w.srv.srv.Snapshot()
	if hits := now.ResultCache.Hits - w.snap0.ResultCache.Hits; hits != 0 {
		return fmt.Errorf("svc-cold saw %d result-cache hits; every request must be a new key", hits)
	}
	if now.ResultCache.Evictions == w.snap0.ResultCache.Evictions && !w.cfg.smoke {
		return fmt.Errorf("svc-cold evicted nothing; the cache was not full")
	}
	return nil
}

func (w *svcCold) layers(sc *spanCtx, budget time.Duration, tl *tally) (map[string]float64, error) {
	v, err := w.sampleAndReplay(sc, budget, tl, w.newSequence(1, 1), true, w.checkBody)
	if err != nil {
		return nil, err
	}
	// The exact counts come from the pinned reference jobs, replayed
	// through the chain (unspanned), so they repeat whatever the seed.
	for k, c := range w.classes {
		if c.name != "partition+topolb" && c.name != "topolb+refine" {
			continue
		}
		job := c.job
		job.Seed = pinnedSeed
		out, err := replayChain(nil, mustJSON(job), w.refs[k], true)
		tl.check(err)
		if err != nil {
			continue
		}
		if c.name == "topolb+refine" {
			v["core.refine_swaps"] = float64(out.swaps)
		} else {
			v["partition.edge_cut"], v["partition.imbalance"] = out.edgeCut, out.imbalance
		}
	}
	return v, nil
}
