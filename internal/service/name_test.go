package service

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/hiertopo"
	"repro/internal/taskgraph"
)

// inlineSquare is a 4-cycle in the taskgraph JSON format; inlineSquareAlt
// lists the same graph with its edges reordered, one of them reversed and
// one weight split over a duplicate edge.
const (
	inlineSquare    = `{"name":"g","vertexWeights":[1,1,1,1],"edges":[[0,1],[1,2],[2,3],[3,0]],"edgeWeights":[5,6,7,8]}`
	inlineSquareAlt = `{"name":"g","vertexWeights":[1,1,1,1],"edges":[[0,3],[3,2],[0,1],[2,1],[1,2]],"edgeWeights":[8,7,5,2,4]}`
)

func inlineJob(graph string) Job {
	return Job{Graph: GraphSpec{Inline: json.RawMessage(graph)}, Topology: "torus:2,2",
		Strategy: "topocentlb", Seed: 7, Metrics: true,
		Sim: &SimSpec{Iterations: 2, Mode: "wormhole", FlitSize: 64}}
}

func hierJob() Job {
	return Job{Graph: GraphSpec{Pattern: "mesh2d:3,4", MsgBytes: 1e5, Seed: 1},
		Topology: testHier, Strategy: "hier", Seed: 1,
		Constraints: []Constraint{{Level: "rack", Kind: "required"}, {Level: "pod", Kind: "preferred"}}}
}

// TestGoldenKeys pins the v3 key preimage: these are the keys the
// single-pass normalizer produced for the same jobs before name and build
// were split. A change here invalidates every deployed cache and must
// bump the version instead.
func TestGoldenKeys(t *testing.T) {
	cases := []struct {
		name string
		spec Job
		key  string
	}{
		{"defaults", Job{Graph: GraphSpec{Pattern: "mesh2d:8,8"}, Topology: "torus:8,8"},
			"662af8b981d727d512509fbebc7268b3b895d6eda6e872a7bb6b7f8e226e9159"},
		{"constrained hier", hierJob(),
			"515b28767b5d68dbd388b3fe72d935f13344bcf1980cad5e07d62d6332a8cd81"},
		{"inline graph with sim", inlineJob(inlineSquare),
			"6267a6dc2dfbaf92b376d1618af757fa6b30abc61908ea353c17a29324cf8ce6"},
		{"auto with derived budget", autoJob(),
			"0e7f3726f2d299433401f02676794c3674eab591343812803cbb1aff0be055ad"},
	}
	for _, tc := range cases {
		if got := mustKey(t, tc.spec); got != tc.key {
			t.Errorf("%s: key %s, want %s", tc.name, got, tc.key)
		}
	}
}

// TestKeyEquivalence pins what the name pass treats as one job: every
// pair of spellings below shares a content key, and every single-field
// change to a job produces a different one.
func TestKeyEquivalence(t *testing.T) {
	plain := Job{Graph: GraphSpec{Pattern: "stencil9:8,8"}, Topology: "torus:8,8"}
	derived := autoJob()
	derived.AutoBudgetMS = mustName(t, autoJob()).spec.AutoBudgetMS

	same := []struct {
		name string
		a, b Job
	}{
		{"case and whitespace",
			Job{Graph: GraphSpec{Pattern: " Stencil9:8,8\t"}, Topology: "  TORUS:8,8 ", Strategy: " TopoLB\n",
				Sim: &SimSpec{Mode: " Packet "}},
			Job{Graph: GraphSpec{Pattern: "stencil9:8,8"}, Topology: "torus:8,8", Strategy: "topolb",
				Sim: &SimSpec{Mode: "packet"}}},
		{"explicit defaults",
			Job{Graph: GraphSpec{Pattern: "stencil9:8,8", MsgBytes: 1e5, Seed: 1}, Topology: "torus:8,8",
				Strategy: "topolb", Seed: 1},
			plain},
		{"graph seed defaults to the job seed",
			Job{Graph: GraphSpec{Pattern: "random:64,256", Seed: 5}, Topology: "torus:8,8", Seed: 5},
			Job{Graph: GraphSpec{Pattern: "random:64,256"}, Topology: "torus:8,8", Seed: 5}},
		{"explicit sim defaults",
			Job{Graph: plain.Graph, Topology: plain.Topology,
				Sim: &SimSpec{Iterations: 1, LinkBandwidth: 1e9, LinkLatency: 1e-6}},
			Job{Graph: plain.Graph, Topology: plain.Topology, Sim: &SimSpec{}}},
		{"structural hierarchy vs hier: compact",
			Job{Graph: GraphSpec{Pattern: "mesh2d:3,4"}, Strategy: "hier",
				Hierarchy: &hiertopo.Spec{Leaf: " Mesh-2x2", Levels: []hiertopo.LevelSpec{
					{Name: "Pod", Count: 2, Cost: 1000}, {Name: "rack", Count: 2}, {Name: "node", Count: 4, Latency: 1e-6}}},
				Constraints: []Constraint{{Level: "rack"}}},
			Job{Graph: GraphSpec{Pattern: "mesh2d:3,4"}, Strategy: "hier", Topology: testHier,
				Constraints: []Constraint{{Level: "rack"}}}},
		{"constraint order, duplicates, case and default kind",
			Job{Graph: hierJob().Graph, Topology: testHier, Strategy: "hier",
				Constraints: []Constraint{{Level: "pod", Kind: "preferred"}, {Level: " RACK "}, {Level: "rack", Kind: "Required"}}},
			hierJob()},
		{"explicit auto_budget_ms equal to the derived default", derived, autoJob()},
		{"inline edge order, direction and duplicates", inlineJob(inlineSquareAlt), inlineJob(inlineSquare)},
		{"inline graphs ignore msg_bytes and graph.seed",
			func() Job { j := inlineJob(inlineSquare); j.Graph.MsgBytes, j.Graph.Seed = 9, 9; return j }(),
			inlineJob(inlineSquare)},
	}
	for _, tc := range same {
		if ka, kb := mustKey(t, tc.a), mustKey(t, tc.b); ka != kb {
			t.Errorf("%s: keys differ (%s vs %s)", tc.name, ka, kb)
		}
	}

	differ := []struct {
		name   string
		base   Job
		change func(*Job)
	}{
		{"topology", plain, func(j *Job) { j.Topology = "mesh:8,8" }},
		{"pattern", plain, func(j *Job) { j.Graph.Pattern = "mesh2d:8,8" }},
		{"msg_bytes", plain, func(j *Job) { j.Graph.MsgBytes = 2e5 }},
		{"graph.seed", plain, func(j *Job) { j.Graph.Seed = 2 }},
		{"seed", plain, func(j *Job) { j.Seed = 2 }},
		{"strategy", plain, func(j *Job) { j.Strategy = "topocentlb" }},
		{"refine", plain, func(j *Job) { j.Refine = true }},
		{"metrics", plain, func(j *Job) { j.Metrics = true }},
		{"sim", plain, func(j *Job) { j.Sim = &SimSpec{} }},
		{"sim.iterations", inlineJob(inlineSquare), func(j *Job) { j.Sim = &SimSpec{Iterations: 3, Mode: "wormhole", FlitSize: 64} }},
		{"sim.mode", inlineJob(inlineSquare), func(j *Job) { j.Sim = &SimSpec{Iterations: 2, FlitSize: 64} }},
		{"inline edge weight", inlineJob(inlineSquare), func(j *Job) {
			j.Graph.Inline = json.RawMessage(`{"name":"g","vertexWeights":[1,1,1,1],"edges":[[0,1],[1,2],[2,3],[3,0]],"edgeWeights":[5,6,7,9]}`)
		}},
		{"constraint kind", hierJob(), func(j *Job) { j.Constraints = []Constraint{{Level: "rack"}, {Level: "pod"}} }},
		{"constraint level", hierJob(), func(j *Job) {
			j.Constraints = []Constraint{{Level: "node"}, {Level: "pod", Kind: "preferred"}}
		}},
		{"constraint dropped", hierJob(), func(j *Job) { j.Constraints = j.Constraints[:1] }},
		{"level cost", hierJob(), func(j *Job) { j.Topology = "hier:pod:2@2000/rack:2/node:4:mesh-2x2" }},
		{"auto_budget_ms", derived, func(j *Job) { j.AutoBudgetMS++ }},
	}
	for _, tc := range differ {
		changed := tc.base
		tc.change(&changed)
		if mustKey(t, tc.base) == mustKey(t, changed) {
			t.Errorf("changing %s alone left the key unchanged", tc.name)
		}
	}
}

// hitAllocCeiling bounds what naming a pattern job and finding it in the
// cache may allocate (measured: 9). The old single pass allocated 1 299
// objects for p=144 and 2 196 for p=256 before it could look anything up.
const hitAllocCeiling = 16

// TestHitAllocationsFlat pins the point of key-before-build: a cache hit
// allocates the same, small number of objects whether the job has 256
// tasks on 16 processors or 16 384 tasks on 256.
func TestHitAllocationsFlat(t *testing.T) {
	srv := NewServer(Config{})
	defer srv.Close()
	hit := func(spec Job) float64 {
		srv.cache.put(mustKey(t, spec), []byte("{}"))
		return testing.AllocsPerRun(200, func() {
			j, err := srv.name(spec)
			if err != nil || srv.cache.get(j.key) == nil {
				t.Fatalf("primed job missed the cache (err %v)", err)
			}
		})
	}
	small := hit(Job{Graph: GraphSpec{Pattern: "stencil9:16,16"}, Topology: "torus:4,4"})
	large := hit(Job{Graph: GraphSpec{Pattern: "stencil9:128,128"}, Topology: "torus:16,16"})
	if small != large && !raceEnabled {
		t.Errorf("hit allocations grow with the job: %v at 256 tasks/16 processors, %v at 16384/256", small, large)
	}
	if large > hitAllocCeiling {
		t.Errorf("hit allocates %v objects, ceiling %d", large, hitAllocCeiling)
	}
}

// hitAllocCeilingInline bounds what naming a 256-vertex inline job and
// finding it in the cache may allocate (measured: 19). Reading the graph
// with encoding/json and writing it back with json.Encoder took 120.
const hitAllocCeilingInline = 19

// TestHitAllocationsInline pins the cost of naming an inline job on the
// way to a hit: its graph is parsed and written back in canonical form
// before there is a key. /v1/map pays it only for a spelling the cache
// has not indexed (TestSpelledHitAllocations pins the indexed hit);
// every /v1/batch entry and /v1/jobs submission pays it.
func TestHitAllocationsInline(t *testing.T) {
	srv := NewServer(Config{})
	defer srv.Close()
	spec := benchInlineJob(t)
	srv.cache.put(mustKey(t, spec), []byte("{}"))
	allocs := testing.AllocsPerRun(200, func() {
		j, err := srv.name(spec)
		if err != nil || srv.cache.get(j.key) == nil {
			t.Fatalf("primed job missed the cache (err %v)", err)
		}
	})
	ceiling := hitAllocCeilingInline
	if raceEnabled {
		ceiling += 4 // sync.Pool drops items under -race
	}
	if allocs > float64(ceiling) {
		t.Errorf("inline hit allocates %v objects, ceiling %d", allocs, ceiling)
	}
}

// BenchmarkNameInline times naming the benchmark's 22 KB inline job: a
// name-path hit's work on it, decoding aside. A repeated /v1/map spelling
// skips both (BenchmarkMapHit times the two paths through Handler()).
func BenchmarkNameInline(b *testing.B) {
	spec := benchInlineJob(b)
	b.ReportAllocs()
	for range b.N {
		if _, err := name(spec, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// benchInlineJob is topomapd's benchmark inline job: a 256-task random
// geometric graph, compacted as a request carries it.
func benchInlineJob(tb testing.TB) Job {
	var buf bytes.Buffer
	if err := taskgraph.RandomGeometricDeg(256, 6, 1e5, 7).WriteJSON(&buf); err != nil {
		tb.Fatal(err)
	}
	return Job{Graph: GraphSpec{Inline: bytes.TrimSpace(buf.Bytes())}, Topology: "torus:16,16"}
}

// TestHitBuildsNothing pins the other half: after a job is cached, equal
// requests on every endpoint are answered without build running at all.
func TestHitBuildsNothing(t *testing.T) {
	var stages atomic.Int64 // build and compute stages entered
	setFaultHook(t, func(string, *Job) { stages.Add(1) })
	srv := NewServer(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	spec := testJobs()[0]
	if status, body := postJSON(t, ts.Client(), ts.URL+"/v1/map", spec); status != 200 {
		t.Fatalf("prime: status %d: %s", status, body)
	}
	if got := stages.Load(); got != 2 {
		t.Fatalf("priming entered %d stages, want build and compute", got)
	}
	if status, body := postJSON(t, ts.Client(), ts.URL+"/v1/map", spec); status != 200 {
		t.Fatalf("map hit: status %d: %s", status, body)
	}
	if status, body := postJSON(t, ts.Client(), ts.URL+"/v1/batch", batchRequest{Jobs: []Job{spec, spec}}); status != 200 {
		t.Fatalf("batch hit: status %d: %s", status, body)
	}
	status, body := postJSON(t, ts.Client(), ts.URL+"/v1/jobs", spec)
	if status != 202 {
		t.Fatalf("submit hit: status %d: %s", status, body)
	}
	var sub submitResponse
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}
	if fr := awaitAsync(t, ts, sub.ID); fr.Status != statusDone {
		t.Fatalf("async hit: %+v", fr)
	}
	if got := stages.Load(); got != 2 {
		t.Errorf("cache hits entered build or compute %d times, want 0", got-2)
	}
	if st := srv.Snapshot(); st.ResultCache.Hits != 4 || st.JobsComputed != 1 {
		t.Errorf("hits = %d, computed = %d; want 4 hits on 1 computation", st.ResultCache.Hits, st.JobsComputed)
	}
}

// TestCoalescedBuildFailure pins how a build-time defect reaches
// coalesced requests: the flight's creator builds, fails, and every
// request that joined the flight meanwhile gets the creator's status and
// message — while the job never takes an admission slot.
func TestCoalescedBuildFailure(t *testing.T) {
	// Too few tasks to fill the machine: only build can tell.
	spec := Job{Graph: GraphSpec{Pattern: "mesh2d:2,2"}, Topology: "torus:4,4"}
	key := mustKey(t, spec)
	const requests = 8
	// Hold the creator inside build until every other request has joined
	// its flight.
	var srv *Server
	setFaultHook(t, func(stage string, _ *Job) {
		awaitWaiters(t, srv, key, requests)
		if depth := srv.Snapshot().QueueDepth; depth != 0 {
			t.Errorf("queue depth %d while the creator builds, want 0", depth)
		}
	})
	srv = NewServer(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	statuses := make([]int, requests)
	bodies := make([][]byte, requests)
	for i := range statuses {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			statuses[i], bodies[i] = postJSON(t, ts.Client(), ts.URL+"/v1/map", spec)
		}(i)
	}
	wg.Wait()
	for i := range statuses {
		if statuses[i] != 400 || string(bodies[i]) != string(bodies[0]) {
			t.Errorf("request %d: status %d body %s; want the creator's 400 %s", i, statuses[i], bodies[i], bodies[0])
		}
	}
	var eb errorBody
	if err := json.Unmarshal(bodies[0], &eb); err != nil || eb.Error != "job: graph has 4 tasks but topology has 16 processors (tasks must fill the machine)" {
		t.Errorf("error body %s", bodies[0])
	}
	st := srv.Snapshot()
	if st.CoalescedJoins != requests-1 || st.ClientErrors != requests || st.JobsComputed != 0 {
		t.Errorf("joins = %d, client_errors = %d, computed = %d; want %d, %d, 0",
			st.CoalescedJoins, st.ClientErrors, st.JobsComputed, requests-1, requests)
	}
	awaitDrained(t, srv)
}

// setFaultHook installs the package's fault-injection hook for one test.
// Call it before starting the server whose goroutines will read it.
func setFaultHook(t *testing.T, hook func(stage string, spec *Job)) {
	t.Helper()
	faultHook = hook
	t.Cleanup(func() { faultHook = nil })
}

// awaitWaiters blocks until the flight for key has the given number of
// waiters.
func awaitWaiters(t *testing.T, srv *Server, key string, waiters int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		srv.table.mu.Lock()
		f := srv.table.flights[key]
		got := 0
		if f != nil {
			got = f.waiters
		}
		srv.table.mu.Unlock()
		if got == waiters {
			return
		}
		if time.Now().After(deadline) {
			t.Errorf("flight has %d waiters, want %d", got, waiters)
			return
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// awaitAsync polls GET /v1/jobs/{id} until the job leaves "pending".
func awaitAsync(t *testing.T, ts *httptest.Server, id string) fetchResponse {
	t.Helper()
	for {
		resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var fr fetchResponse
		err = json.NewDecoder(resp.Body).Decode(&fr)
		resp.Body.Close()
		if err != nil || resp.StatusCode != 200 {
			t.Fatalf("fetch %s: status %d, decode error %v", id, resp.StatusCode, err)
		}
		if fr.Status != statusPending {
			return fr
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestBadSimSpecRefusedBeforeBuild: every simulation setting the
// simulator would refuse is a 400 from naming, before the job takes a
// build or an admission slot, and the same 400 over HTTP.
func TestBadSimSpecRefusedBeforeBuild(t *testing.T) {
	srv := NewServer(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for _, sim := range []string{
		`{"flit_size":-1}`,
		`{"mode":"wormhole","adaptive":true}`,
		`{"mode":"wormhole","buffer_packets":2}`,
		`{"adaptive":true,"buffer_packets":2}`,
		`{"link_bandwidth":-1}`,
		`{"link_latency":-1}`,
		`{"packet_size":-1}`,
		`{"buffer_packets":-1}`,
		`{"compute_time":-1}`,
	} {
		body := `{"topology":"torus:4,4","graph":{"pattern":"mesh2d:4,4"},"sim":` + sim + `}`
		var spec Job
		if err := json.Unmarshal([]byte(body), &spec); err != nil {
			t.Fatal(err)
		}
		_, err := name(spec, 0)
		if je, ok := err.(*jobError); !ok || je.status != 400 {
			t.Errorf("sim %s: name returned %v, want a 400", sim, err)
		}
		status, resp, _ := post(t, ts, "/v1/map", body)
		if status != 400 {
			t.Errorf("sim %s: /v1/map answered %d (%s), want 400", sim, status, resp)
		}
	}
}
