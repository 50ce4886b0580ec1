package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"

	topomap "repro"
	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/topology"
	"repro/internal/trace"
)

// directBody computes the expected response body for spec with direct
// library calls — an independent reimplementation of the service's
// compute path. Specs must carry every field explicitly (no reliance on
// server-side defaults).
func directBody(t *testing.T, spec Job) []byte {
	t.Helper()
	var (
		topo topology.Topology
		err  error
	)
	if spec.Sim != nil {
		topo, err = cliutil.ParseTopology(spec.Topology)
	} else {
		topo, err = cliutil.ParseAnyTopology(spec.Topology)
	}
	if err != nil {
		t.Fatal(err)
	}
	strat, err := cliutil.ParseStrategy(spec.Strategy, spec.Seed)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Refine {
		strat = core.RefineTopoLB{Base: strat}
	}
	// The service feeds pattern geometry to the geometric strategies;
	// mirror it here so sfc/rcb-sfc jobs pin the coordinate path.
	strat = cliutil.WithCoords(strat, cliutil.PatternCoords(spec.Graph.Pattern, spec.Graph.Seed))
	g, err := cliutil.ParsePattern(spec.Graph.Pattern, spec.Graph.MsgBytes, spec.Graph.Seed)
	if err != nil {
		t.Fatal(err)
	}
	res := JobResult{
		Strategy: strat.Name(),
		Topology: topo.Name(),
		Graph:    g.Name(),
		Tasks:    g.NumVertices(),
	}
	var m []int
	if g.NumVertices() > topo.Nodes() {
		pr, err := topomap.MapTasks(g, topo, topomap.Multilevel{Seed: spec.Seed}, strat)
		if err != nil {
			t.Fatal(err)
		}
		m = pr.Placement
		res.EdgeCut = pr.EdgeCut
		res.Imbalance = pr.Imbalance
	} else {
		m, err = strat.Map(g, topo)
		if err != nil {
			t.Fatal(err)
		}
	}
	res.Mapping = m
	res.HopBytes = core.HopBytes(g, topo, m)
	if total := g.TotalComm(); total > 0 {
		res.HopsPerByte = res.HopBytes / total
	}
	if spec.Metrics {
		rep, err := metrics.Evaluate(g, topo, m)
		if err != nil {
			t.Fatal(err)
		}
		res.Report = rep
	}
	if s := spec.Sim; s != nil {
		prog, err := trace.FromTaskGraph(g, s.Iterations, s.ComputeTime)
		if err != nil {
			t.Fatal(err)
		}
		mode, err := netsim.ParseMode(s.Mode)
		if err != nil {
			t.Fatal(err)
		}
		rr, err := trace.Replay(prog, m, netsim.Config{
			Topology:         topo.(topology.Router),
			LinkBandwidth:    s.LinkBandwidth,
			LinkLatency:      s.LinkLatency,
			PacketSize:       s.PacketSize,
			Adaptive:         s.Adaptive,
			BufferPackets:    s.BufferPackets,
			Mode:             mode,
			FlitSize:         s.FlitSize,
			FlitBuffer:       s.FlitBuffer,
			CollectLatencies: s.CollectLatencies,
		})
		if err != nil {
			t.Fatal(err)
		}
		res.Sim = &SimResult{CompletionTime: rr.CompletionTime, Stats: rr.Net}
	}
	body, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// testJobs is the determinism workload: every endpoint family, strategy
// mix, and options mix. All fields explicit so directBody and the server
// normalize to the same job.
func testJobs() []Job {
	return []Job{
		{Graph: GraphSpec{Pattern: "mesh2d:8,8", MsgBytes: 1e5, Seed: 1},
			Topology: "torus:8,8", Strategy: "topolb", Seed: 1},
		{Graph: GraphSpec{Pattern: "mesh2d:8,8", MsgBytes: 1e5, Seed: 1},
			Topology: "torus:8,8", Strategy: "topocentlb", Seed: 1, Metrics: true},
		{Graph: GraphSpec{Pattern: "random:64,256", MsgBytes: 2e4, Seed: 7},
			Topology: "mesh:8,8", Strategy: "random", Seed: 7, Refine: true},
		{Graph: GraphSpec{Pattern: "ring:32", MsgBytes: 5e4, Seed: 1},
			Topology: "hypercube:5", Strategy: "topolb1", Seed: 1},
		{Graph: GraphSpec{Pattern: "stencil9:6,6", MsgBytes: 1e5, Seed: 1},
			Topology: "torus:6,6", Strategy: "topolb", Seed: 1, Metrics: true,
			Sim: &SimSpec{Iterations: 2, ComputeTime: 1e-5, LinkBandwidth: 1e8, LinkLatency: 1e-6, PacketSize: 1024}},
		// Wormhole (flit-level) simulation mode.
		{Graph: GraphSpec{Pattern: "stencil9:6,6", MsgBytes: 1e5, Seed: 1},
			Topology: "torus:6,6", Strategy: "topolb", Seed: 1,
			Sim: &SimSpec{Iterations: 2, ComputeTime: 1e-5, LinkBandwidth: 1e8, LinkLatency: 1e-6,
				PacketSize: 1024, Mode: "wormhole", FlitSize: 64, FlitBuffer: 4, CollectLatencies: true}},
		// Partitioned jobs (tasks > processors) through the two-phase
		// pipeline, with and without a wormhole evaluation pass.
		{Graph: GraphSpec{Pattern: "mesh2d:8,8", MsgBytes: 1e5, Seed: 1},
			Topology: "torus:4,4", Strategy: "topolb", Seed: 1, Metrics: true},
		{Graph: GraphSpec{Pattern: "mesh2d:8,8", MsgBytes: 1e5, Seed: 1},
			Topology: "torus:4,4", Strategy: "topolb", Seed: 1, Refine: true,
			Sim: &SimSpec{Iterations: 1, ComputeTime: 1e-5, LinkBandwidth: 1e8, LinkLatency: 1e-6,
				PacketSize: 1024, Mode: "wormhole", FlitSize: 128}},
		// Hierarchical multilevel mapping: tasks placed directly, no
		// separate partition phase.
		{Graph: GraphSpec{Pattern: "stencil9:16,16", MsgBytes: 1e5, Seed: 1},
			Topology: "torus:4,4", Strategy: "multilevel", Seed: 1, Metrics: true},
		// A partitioned job with a non-default seed: the partitioner's RNG
		// follows the spec seed, so this must not collide with Seed 1.
		{Graph: GraphSpec{Pattern: "mesh2d:8,8", MsgBytes: 1e5, Seed: 1},
			Topology: "torus:4,4", Strategy: "topolb", Seed: 3},
		// Geometric strategies, bijective and partitioned: the service must
		// feed them the pattern's coordinates exactly as the library does.
		{Graph: GraphSpec{Pattern: "stencil9:8,8", MsgBytes: 1e5, Seed: 1},
			Topology: "torus:8,8", Strategy: "sfc", Seed: 1},
		{Graph: GraphSpec{Pattern: "stencil9:16,16", MsgBytes: 1e5, Seed: 1},
			Topology: "torus:4,4", Strategy: "rcb-sfc", Seed: 1, Metrics: true},
		// A geometry-free pattern through sfc exercises the BFS fallback.
		{Graph: GraphSpec{Pattern: "bintree:64", MsgBytes: 1e5, Seed: 1},
			Topology: "torus:4,4", Strategy: "sfc", Seed: 1},
	}
}

func postJSON(t *testing.T, client *http.Client, url string, v any) (int, []byte) {
	t.Helper()
	payload, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestServiceMatchesLibrary pins every endpoint to direct library calls
// at GOMAXPROCS {1,2,8} and client concurrency {1,4,16}: each response
// body must be byte-identical to the independently computed reference,
// no matter which path (fresh compute, result cache, coalesced flight)
// served it.
func TestServiceMatchesLibrary(t *testing.T) {
	jobs := testJobs()
	want := make([][]byte, len(jobs))
	for i, spec := range jobs {
		want[i] = directBody(t, spec)
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, gmp := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(gmp)
		for _, conc := range []int{1, 4, 16} {
			t.Run(fmt.Sprintf("gomaxprocs=%d/conc=%d", gmp, conc), func(t *testing.T) {
				srv := NewServer(Config{})
				defer srv.Close()
				ts := httptest.NewServer(srv.Handler())
				defer ts.Close()

				// Sync: conc workers round-robin over the jobs, so the
				// same job is requested cold, coalesced, and cache-hot.
				var wg sync.WaitGroup
				errs := make(chan string, conc*2*len(jobs))
				for c := 0; c < conc; c++ {
					wg.Add(1)
					go func(c int) {
						defer wg.Done()
						for rep := 0; rep < 2; rep++ {
							for i := range jobs {
								status, body := postJSON(t, ts.Client(), ts.URL+"/v1/map", jobs[i])
								if status != 200 {
									errs <- fmt.Sprintf("job %d: status %d: %s", i, status, body)
									return
								}
								if !bytes.Equal(body, want[i]) {
									errs <- fmt.Sprintf("job %d: body diverges from library:\n got %s\nwant %s", i, body, want[i])
									return
								}
							}
						}
					}(c)
				}
				wg.Wait()
				close(errs)
				for e := range errs {
					t.Fatal(e)
				}

				// Batch: all jobs in one request; per-entry bodies must be
				// the same bytes the sync endpoint returned.
				status, body := postJSON(t, ts.Client(), ts.URL+"/v1/batch", batchRequest{Jobs: jobs})
				if status != 200 {
					t.Fatalf("batch status %d: %s", status, body)
				}
				var br batchResponse
				if err := json.Unmarshal(body, &br); err != nil {
					t.Fatal(err)
				}
				if len(br.Results) != len(jobs) {
					t.Fatalf("batch returned %d results for %d jobs", len(br.Results), len(jobs))
				}
				for i, e := range br.Results {
					if e.Status != 200 {
						t.Fatalf("batch entry %d: status %d: %s", i, e.Status, e.Error)
					}
					if !bytes.Equal(e.Result, want[i]) {
						t.Errorf("batch entry %d diverges from library", i)
					}
				}

				// Async: submit every job, poll to completion, compare.
				ids := make([]string, len(jobs))
				for i := range jobs {
					status, body := postJSON(t, ts.Client(), ts.URL+"/v1/jobs", jobs[i])
					if status != 202 {
						t.Fatalf("submit %d: status %d: %s", i, status, body)
					}
					var sub submitResponse
					if err := json.Unmarshal(body, &sub); err != nil {
						t.Fatal(err)
					}
					ids[i] = sub.ID
				}
				for i, id := range ids {
					var fr fetchResponse
					for {
						resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + id)
						if err != nil {
							t.Fatal(err)
						}
						data, err := io.ReadAll(resp.Body)
						resp.Body.Close()
						if err != nil {
							t.Fatal(err)
						}
						if resp.StatusCode != 200 {
							t.Fatalf("fetch %s: status %d: %s", id, resp.StatusCode, data)
						}
						if err := json.Unmarshal(data, &fr); err != nil {
							t.Fatal(err)
						}
						if fr.Status != statusPending {
							break
						}
					}
					if fr.Status != statusDone {
						t.Fatalf("async job %d: status %s: %s", i, fr.Status, fr.Error)
					}
					if !bytes.Equal(fr.Result, want[i]) {
						t.Errorf("async job %d diverges from library", i)
					}
				}
			})
		}
	}
}

// TestCoalescingComputesOnce holds the single worker inside a blocker
// job's compute stage, attaches N identical requests to one flight
// (observed white-box before the worker can claim it), and asserts the
// flight computed exactly once while every caller got the
// library-identical body.
func TestCoalescingComputesOnce(t *testing.T) {
	blocker := Job{Graph: GraphSpec{Pattern: "mesh2d:6,6", MsgBytes: 1e5, Seed: 1},
		Topology: "torus:6,6", Strategy: "topolb", Seed: 1}
	dup := Job{Graph: GraphSpec{Pattern: "mesh2d:8,8", MsgBytes: 1e5, Seed: 1},
		Topology: "torus:8,8", Strategy: "topolb", Seed: 1}
	want := directBody(t, dup)
	release := holdCompute(t, blocker)

	srv := NewServer(Config{Workers: 1, CacheEntries: -1})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer release()

	blockerDone := make(chan struct{})
	go func() {
		defer close(blockerDone)
		status, body := postJSON(t, ts.Client(), ts.URL+"/v1/map", blocker)
		if status != 200 {
			t.Errorf("blocker: status %d: %s", status, body)
		}
	}()
	// Wait until the worker has claimed the blocker, so the duplicate
	// flight below cannot be picked up while we attach waiters to it.
	for srv.Snapshot().JobsRunning == 0 {
		runtime.Gosched()
	}

	const dups = 8
	var wg sync.WaitGroup
	bodies := make([][]byte, dups)
	statuses := make([]int, dups)
	for i := 0; i < dups; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			statuses[i], bodies[i] = postJSON(t, ts.Client(), ts.URL+"/v1/map", dup)
		}(i)
	}
	// White-box: wait until all dups share one queued flight. The blocker
	// holds the only worker until release, so this is reachable, and it
	// happens-before any dup computation.
	key := mustKey(t, dup)
	for {
		srv.table.mu.Lock()
		f := srv.table.flights[key]
		waiters, state := 0, -1
		if f != nil {
			waiters, state = f.waiters, f.state
		}
		srv.table.mu.Unlock()
		if waiters == dups && state == flightQueued {
			break
		}
		if done := srv.Snapshot().JobsComputed; done >= 2 {
			t.Fatalf("dup computed before all waiters joined (computed=%d)", done)
		}
		runtime.Gosched()
	}
	release()
	wg.Wait()
	<-blockerDone

	for i := 0; i < dups; i++ {
		if statuses[i] != 200 {
			t.Fatalf("dup %d: status %d: %s", i, statuses[i], bodies[i])
		}
		if !bytes.Equal(bodies[i], want) {
			t.Errorf("dup %d diverges from library", i)
		}
	}
	st := srv.Snapshot()
	if st.JobsComputed != 2 { // blocker + exactly one dup computation
		t.Errorf("jobs computed = %d, want 2", st.JobsComputed)
	}
	if st.CoalescedJoins != dups-1 {
		t.Errorf("coalesced joins = %d, want %d", st.CoalescedJoins, dups-1)
	}
}

// holdCompute installs a fault hook that holds any job whose topology is
// blocker's at the start of its compute stage until the returned release
// is called; release may be called more than once. A worker that claims
// the blocker stays busy for as long as the test needs, at no cost in
// computation.
func holdCompute(t *testing.T, blocker Job) (release func()) {
	t.Helper()
	held := make(chan struct{})
	setFaultHook(t, func(stage string, spec *Job) {
		if stage == "compute" && spec.Topology == blocker.Topology {
			<-held
		}
	})
	return sync.OnceFunc(func() { close(held) })
}

// mustKey returns spec's content key via the service's own normalizer.
func mustKey(t *testing.T, spec Job) string {
	t.Helper()
	j, err := name(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	return j.key
}

// TestResultCacheHitServesIdenticalBytes pins the cache path: the second
// identical request must hit the result cache and return the same bytes.
func TestResultCacheHitServesIdenticalBytes(t *testing.T) {
	srv := NewServer(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	spec := testJobs()[1]
	_, first := postJSON(t, ts.Client(), ts.URL+"/v1/map", spec)
	before := srv.Snapshot().ResultCache.Hits
	_, second := postJSON(t, ts.Client(), ts.URL+"/v1/map", spec)
	if !bytes.Equal(first, second) {
		t.Error("cache hit returned different bytes")
	}
	if after := srv.Snapshot().ResultCache.Hits; after != before+1 {
		t.Errorf("cache hits went %d -> %d, want +1", before, after)
	}
	if got := srv.Snapshot().JobsComputed; got != 1 {
		t.Errorf("jobs computed = %d, want 1", got)
	}
}
