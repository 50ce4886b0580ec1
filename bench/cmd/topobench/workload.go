package main

import (
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/topology"
)

// workload is one named traffic mix. An op is what its users wait for: a
// request, a delta batch, or a whole pass.
type workload interface {
	// setup builds the inputs from the seed, starts what the workload
	// serves from, primes it and verifies the pinned quality probe. It can
	// be called again after close.
	setup(sc *spanCtx, tl *tally) error
	close()
	// shape is the closed loop: how many clients, and the block of ops a
	// phase must complete whole so its composition does not depend on
	// where the clock stopped it. Every block does the same work, so the
	// time each took is the sample ops_per_s is read from.
	shape() (clients, block int)
	// op runs operation i for client c, verifies its output, and returns
	// the latency its user saw.
	op(c int, i int64, sc *spanCtx) (time.Duration, error)
	// validate checks what only shows over the whole run (cache counters).
	validate() error
	// quality is measured on pinned inputs, so it repeats exactly whatever
	// the seed; 1 stands for "not applicable to this workload".
	quality() (hopsPerByte, simTimeRatio float64)
	// layers spends budget on the workload's layer breakdown and returns
	// the counter-style per-layer metrics.
	layers(sc *spanCtx, budget time.Duration, tl *tally) (map[string]float64, error)
	// layerRoot names the span whose count divides layer self times, and
	// opSpan the span whose duration is what the user waited for.
	layerRoot() string
	opSpan() string
}

var workloads = map[string]func(config) workload{
	"svc-cold":       func(c config) workload { return newSvcCold(c) },
	"svc-warm":       func(c config) workload { return newSvcWarm(c) },
	"lib-scale":      func(c config) workload { return newLibScale(c) },
	"session-stream": func(c config) workload { return newSessionStream(c) },
	"sim-sweep":      func(c config) workload { return newSimSweep(c) },
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// dropProcessCaches empties the process-wide distance-matrix cache, so a
// repeated set-up pays for its tables again like the first one did.
func dropProcessCaches() {
	topology.PurgeDistanceCache()
	runtime.GC()
}

// phaseResult is one measured phase of the closed loop.
type phaseResult struct {
	ops, failed int64
	elapsed     time.Duration
	latMS       []float64
	blockS      []float64 // seconds each whole block took, in order
	allocBytes  uint64
	mallocs     uint64
}

// add pools another phase's samples into r.
func (r *phaseResult) add(o phaseResult) {
	r.ops += o.ops
	r.failed += o.failed
	r.elapsed += o.elapsed
	r.latMS = append(r.latMS, o.latMS...)
	r.blockS = append(r.blockS, o.blockS...)
	r.allocBytes += o.allocBytes
	r.mallocs += o.mallocs
}

// phases hands out op indices across consecutive phases: the sequence
// continues from warm-up into the timed phase, and each phase ends on a
// block boundary.
type phases struct {
	w       workload
	rec     *recorder
	clients int
	block   int

	mu       sync.Mutex
	next     int64
	deadline time.Time
	stopped  bool
	marks    []time.Time // when each block's first op was handed out
}

func newPhases(w workload, rec *recorder) *phases {
	clients, block := w.shape()
	return &phases{w: w, rec: rec, clients: clients, block: block}
}

func (p *phases) take() (int64, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.stopped {
		return 0, false
	}
	if p.next%int64(p.block) == 0 {
		now := time.Now()
		p.marks = append(p.marks, now)
		if !now.Before(p.deadline) {
			p.stopped = true
			return 0, false
		}
	}
	i := p.next
	p.next++
	return i, true
}

// run drives the closed loop for at least d and to the end of the block
// then in progress. Failures are counted into tl; a nil tl discards the
// phase's verification results (warm-up).
func (p *phases) run(d time.Duration, tl *tally) phaseResult {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	p.mu.Lock()
	p.deadline, p.stopped, p.marks = start.Add(d), false, p.marks[:0]
	p.mu.Unlock()

	type clientResult struct {
		lat  []float64
		errs []error
	}
	results := make([]clientResult, p.clients)
	var wg sync.WaitGroup
	for c := 0; c < p.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := &results[c]
			for {
				i, ok := p.take()
				if !ok {
					return
				}
				sc, end := (&spanCtx{rec: p.rec, parent: -1, op: i}).span("op")
				lat, err := p.w.op(c, i, sc)
				end()
				r.lat = append(r.lat, float64(lat)/float64(time.Millisecond))
				if err != nil {
					r.errs = append(r.errs, err)
				}
			}
		}(c)
	}
	wg.Wait()
	res := phaseResult{elapsed: time.Since(start)}
	for k := 1; k < len(p.marks); k++ {
		res.blockS = append(res.blockS, p.marks[k].Sub(p.marks[k-1]).Seconds())
	}
	runtime.ReadMemStats(&m1)
	res.allocBytes, res.mallocs = m1.TotalAlloc-m0.TotalAlloc, m1.Mallocs-m0.Mallocs
	for _, r := range results {
		res.ops += int64(len(r.lat))
		res.failed += int64(len(r.errs))
		res.latMS = append(res.latMS, r.lat...)
		tl.pass(len(r.lat) - len(r.errs))
		for _, err := range r.errs {
			tl.check(err)
		}
	}
	return res
}
