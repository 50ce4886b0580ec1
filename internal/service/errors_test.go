package service

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cliutil"
)

// post sends raw bytes and returns (status, body, header).
func post(t *testing.T, ts *httptest.Server, path, payload string) (int, []byte, http.Header) {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+path, "application/json", strings.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body, resp.Header
}

func wantStatus(t *testing.T, got int, want int, body []byte) {
	t.Helper()
	if got != want {
		t.Fatalf("status = %d, want %d (body: %s)", got, want, body)
	}
}

func TestMalformedRequests(t *testing.T) {
	srv := NewServer(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cases := []struct {
		name    string
		path    string
		payload string
		status  int
	}{
		{"truncated json", "/v1/map", `{"topology": "torus:4,4", "graph"`, 400},
		{"unknown field", "/v1/map", `{"topology":"torus:4,4","graph":{"pattern":"mesh2d:4,4"},"bogus":1}`, 400},
		{"trailing garbage", "/v1/map", `{"topology":"torus:4,4","graph":{"pattern":"mesh2d:4,4"}} extra`, 400},
		{"missing topology", "/v1/map", `{"graph":{"pattern":"mesh2d:4,4"}}`, 400},
		{"missing graph", "/v1/map", `{"topology":"torus:4,4"}`, 400},
		{"pattern and inline both set", "/v1/map",
			`{"topology":"torus:4,4","graph":{"pattern":"mesh2d:4,4","inline":{"edges":[]}}}`, 400},
		{"unknown pattern", "/v1/map", `{"topology":"torus:4,4","graph":{"pattern":"klein:4,4"}}`, 400},
		{"unknown topology", "/v1/map", `{"topology":"moebius:4,4","graph":{"pattern":"mesh2d:4,4"}}`, 400},
		{"unknown strategy", "/v1/map",
			`{"topology":"torus:4,4","graph":{"pattern":"mesh2d:4,4"},"strategy":"psychic"}`, 400},
		{"too few tasks to fill the machine", "/v1/map",
			`{"topology":"torus:4,4","graph":{"pattern":"mesh2d:2,2"}}`, 400},
		{"wormhole with adaptive", "/v1/map",
			`{"topology":"torus:4,4","graph":{"pattern":"mesh2d:4,4"},"sim":{"mode":"wormhole","adaptive":true}}`, 400},
		{"unknown sim mode", "/v1/map",
			`{"topology":"torus:4,4","graph":{"pattern":"mesh2d:4,4"},"sim":{"mode":"tachyon"}}`, 400},
		{"negative sim iterations", "/v1/map",
			`{"topology":"torus:4,4","graph":{"pattern":"mesh2d:4,4"},"sim":{"iterations":-3}}`, 400},
		{"bad inline graph", "/v1/map",
			`{"topology":"torus:4,4","graph":{"inline":{"edges":"nope"}}}`, 400},
		{"batch empty", "/v1/batch", `{"jobs":[]}`, 400},
		{"batch not json", "/v1/batch", `[[[`, 400},
		{"submit malformed", "/v1/jobs", `{"topology":`, 400},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, body, _ := post(t, ts, tc.path, tc.payload)
			wantStatus(t, status, tc.status, body)
			var eb errorBody
			if err := json.Unmarshal(body, &eb); err != nil {
				t.Fatalf("error body is not JSON: %s", body)
			}
			if eb.Status != tc.status || eb.Error == "" {
				t.Errorf("error body = %+v, want status %d and a message", eb, tc.status)
			}
		})
	}

	if ce := srv.Snapshot().ClientErrors; ce != int64(len(cases)) {
		t.Errorf("client_errors = %d, want %d", ce, len(cases))
	}
}

// TestErrorTaxonomyAcrossEndpoints pins every job defect to one status and
// one message on all three job endpoints, and to exactly one client_errors
// count on each. Defects in the request text are found by the name pass
// and fail POST /v1/jobs itself; defects only the operands show (build)
// or only the strategy finds (compute) are that async job's outcome, with
// the status a sync request gets in the fetch's code field.
func TestErrorTaxonomyAcrossEndpoints(t *testing.T) {
	const hier = `"topology":"` + testHier + `"`
	cases := []struct {
		name    string
		payload string
		status  int
		msg     string
		named   bool // POST /v1/jobs answers 202: the defect is found after naming
	}{
		{"missing topology", `{"graph":{"pattern":"mesh2d:4,4"}}`, 400,
			"job: topology is required", false},
		{"unknown strategy", `{"topology":"torus:4,4","graph":{"pattern":"mesh2d:4,4"},"strategy":"psychic"}`, 400,
			`job: cliutil: unknown strategy "psychic" (known: ` + strings.Join(cliutil.StrategyNames(), ", ") + `)`, false},
		{"unknown sim mode", `{"topology":"torus:4,4","graph":{"pattern":"mesh2d:4,4"},"sim":{"mode":"tachyon"}}`, 400,
			`job: sim: netsim: unknown mode "tachyon" (want packet or wormhole)`, false},
		{"bad inline graph", `{"topology":"torus:4,4","graph":{"inline":{"vertexWeights":[1,1],"edges":[[0,5]],"edgeWeights":[1]}}}`, 400,
			"job: inline graph: taskgraph: bad edge (0,5)", false},
		// encoding/json read an edge into a [2]int32, dropping a third
		// endpoint and zero-filling a missing one.
		{"inline edge without two endpoints", `{"topology":"torus:4,4","graph":{"inline":{"vertexWeights":[1,1,1],"edges":[[0,1,2]],"edgeWeights":[1]}}}`, 400,
			"job: inline graph: taskgraph: edge 0 lists 3 endpoints, want 2", false},
		// Repeated edges are summed; this sum has no JSON spelling, and
		// failing to write the graph back to name it was a 500.
		{"inline edge weights summing past float64", `{"topology":"torus:4,4","graph":{"inline":{"vertexWeights":[1,1],"edges":[[0,1],[1,0]],"edgeWeights":[1e308,1e308]}}}`, 400,
			"job: inline graph: taskgraph: the weights of edge (0,1) sum past float64's range", false},
		{"bad structural level", `{"graph":{"pattern":"mesh2d:4,4"},"hierarchy":{"levels":[{"name":"Pod!","count":2}]}}`, 400,
			`job: hierarchy: hiertopo: level name "pod!" must be lowercase alphanumeric starting with a letter`, false},
		{"constraints on a flat machine", `{"topology":"torus:4,4","graph":{"pattern":"mesh2d:4,4"},"constraints":[{"level":"rack"}]}`, 400,
			"job: constraints require a hierarchical topology (hier:SPEC or the hierarchy field)", false},
		{"unknown constraint level", `{` + hier + `,"graph":{"pattern":"mesh2d:4,4"},"constraints":[{"level":"cabinet"}]}`, 400,
			`job: constraint level "cabinet": hierarchy has levels pod, rack, node`, false},
		{"hier strategy on a flat machine", `{"topology":"torus:4,4","graph":{"pattern":"mesh2d:4,4"},"strategy":"hier"}`, 400,
			"job: strategy hier requires a hierarchical topology (hier:SPEC or the hierarchy field)", false},
		{"auto job too small, built while named", `{"topology":"torus:4,4","graph":{"pattern":"mesh2d:2,2"},"strategy":"auto"}`, 400,
			"job: graph has 4 tasks but topology has 16 processors (tasks must fill the machine)", false},

		{"unknown pattern", `{"topology":"torus:4,4","graph":{"pattern":"klein:4,4"}}`, 400,
			`job: cliutil: unknown pattern "klein:4,4"`, true},
		// Outside a pattern row's bounds: the generators panic there, so each
		// of these was a 500 counted in internal_errors until the table
		// checked the bounds first.
		{"ring below its bound", `{"topology":"torus:2","graph":{"pattern":"ring:2"}}`, 400,
			"job: cliutil: pattern extent 2 must be >= 3", true},
		{"torus2d below its bound", `{"topology":"torus:2,2","graph":{"pattern":"torus2d:2,2"}}`, 400,
			"job: cliutil: pattern extent 2 must be >= 3", true},
		{"alltoall below its bound", `{"topology":"mesh:1","graph":{"pattern":"alltoall:1"}}`, 400,
			"job: cliutil: pattern extent 1 must be >= 2", true},
		{"transpose below its bound", `{"topology":"mesh:1","graph":{"pattern":"transpose:1"}}`, 400,
			"job: cliutil: pattern extent 1 must be >= 2", true},
		{"butterfly above its bound", `{"topology":"torus:4,4","graph":{"pattern":"butterfly:21"}}`, 400,
			"job: cliutil: pattern extent 21 must be <= 20", true},
		{"random below its bound", `{"topology":"torus:2","graph":{"pattern":"random:2,5"}}`, 400,
			"job: cliutil: pattern extent 2 must be >= 3", true},
		{"rgg below its bound", `{"topology":"mesh:1","graph":{"pattern":"rgg:1,4"}}`, 400,
			"job: cliutil: pattern extent 1 must be >= 2", true},
		{"negative message bytes", `{"topology":"torus:4,4","graph":{"pattern":"mesh2d:4,4","msg_bytes":-5}}`, 400,
			"job: cliutil: message bytes -5 must be >= 0", true},
		{"hop-bytes overflow", `{"topology":"torus:4,4","graph":{"pattern":"mesh2d:4,4","msg_bytes":1e308}}`, 422,
			"job: hop-bytes is not finite (+Inf); lower graph.msg_bytes or the edge weights", true},
		{"bad topology dimension", `{"topology":"torus:0,4","graph":{"pattern":"mesh2d:4,4"}}`, 400,
			"job: topology: shape dimensions must all be >= 1", true},
		// Refused on their numbers, before a neighbour list is laid out.
		{"hypercube over the processor cap", `{"topology":"hypercube:30","graph":{"pattern":"mesh2d:4,4"}}`, 400,
			"job: topology: hypercube dimension 30 out of range [0,22]", true},
		{"torus over the processor cap", `{"topology":"torus:32768,32768","graph":{"pattern":"mesh2d:4,4"}}`, 400,
			"job: topology: shape (32768,32768) too large (> 4194304 nodes)", true},
		{"fat-tree over the processor cap", `{"topology":"fattree:64,4","graph":{"pattern":"mesh2d:4,4"}}`, 400,
			"job: topology: fat-tree too large (> 4194304 leaves)", true},
		{"hierarchy over the processor cap", `{"topology":"hier:pod:4096/rack:4096","graph":{"pattern":"mesh2d:4,4"}}`, 400,
			"job: hiertopo: hierarchy exceeds 4194304 processors", true},
		{"malformed hier spec", `{"topology":"hier:pod","graph":{"pattern":"mesh2d:4,4"}}`, 400,
			`job: hiertopo: level segment "pod" needs name:count`, true},
		{"structural leaf out of range", `{"graph":{"pattern":"mesh2d:4,4"},"hierarchy":{"levels":[{"name":"pod","count":2}],"leaf":"torus-0x4"}}`, 400,
			`job: hierarchy: hiertopo: leaf "torus-0x4": topology: shape dimensions must all be >= 1`, true},
		{"sim on a hierarchy", `{` + hier + `,"graph":{"pattern":"mesh2d:8,8"},"sim":{}}`, 400,
			"job: cliutil: hierarchical topologies do not support per-link routing; use torus/mesh/hypercube", true},
		{"too few tasks", `{"topology":"torus:4,4","graph":{"pattern":"mesh2d:2,2"}}`, 400,
			"job: graph has 4 tasks but topology has 16 processors (tasks must fill the machine)", true},
		{"too many tasks", `{"topology":"torus:16,16","graph":{"pattern":"mesh2d:20,20"}}`, 413,
			"job: graph has 400 tasks, limit is 300", true},
		{"required constraint infeasible", `{` + hier + `,"graph":{"pattern":"mesh2d:8,8"},"strategy":"hier","constraints":[{"level":"rack"}]}`, 400,
			"job: constraint: 64 tasks cannot fit one rack (16 processors); drop the constraint or mark it preferred", true},
		{"strategy fails", `{"topology":"torus:4,4","graph":{"pattern":"mesh2d:4,4"},"strategy":"hybrid:8x8"}`, 422,
			"job: Hybrid[8 8]: hybrid: block extent 8 does not divide machine extent 4", true},
		{"strategy cannot pack", `{` + hier + `,"graph":{"pattern":"mesh2d:3,4"},"constraints":[{"level":"rack"}]}`, 422,
			`job: TopoLB cannot pack 12 tasks onto 16 processors; use strategy "hier" (or "auto")`, true},
	}

	srv := NewServer(Config{MaxTasks: 300})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	wantErrorBody := func(t *testing.T, status int, body []byte, wantStatus int, wantMsg string) {
		t.Helper()
		var eb errorBody
		if err := json.Unmarshal(body, &eb); err != nil {
			t.Fatalf("error body is not JSON: %s", body)
		}
		if status != wantStatus || eb.Status != wantStatus || eb.Error != wantMsg {
			t.Errorf("got %d %+v\nwant %d %q", status, eb, wantStatus, wantMsg)
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := srv.Snapshot().ClientErrors

			status, body, _ := post(t, ts, "/v1/map", tc.payload)
			wantErrorBody(t, status, body, tc.status, tc.msg)

			// A healthy job rides along: its entry must be unaffected.
			status, body, _ = post(t, ts, "/v1/batch",
				`{"jobs":[`+tc.payload+`,{"topology":"torus:4,4","graph":{"pattern":"mesh2d:4,4"}}]}`)
			wantStatus(t, status, 200, body)
			var br batchResponse
			if err := json.Unmarshal(body, &br); err != nil || len(br.Results) != 2 {
				t.Fatalf("batch response %s (%v)", body, err)
			}
			if e := br.Results[0]; e.Status != tc.status || e.Error != tc.msg || e.Result != nil {
				t.Errorf("batch entry = %d %q, want %d %q", e.Status, e.Error, tc.status, tc.msg)
			}
			if e := br.Results[1]; e.Status != 200 || e.Error != "" {
				t.Errorf("healthy batch entry = %d %q", e.Status, e.Error)
			}

			status, body, _ = post(t, ts, "/v1/jobs", tc.payload)
			if !tc.named {
				wantErrorBody(t, status, body, tc.status, tc.msg)
			} else {
				wantStatus(t, status, 202, body)
				var sub submitResponse
				if err := json.Unmarshal(body, &sub); err != nil {
					t.Fatal(err)
				}
				fr := awaitAsync(t, ts, sub.ID)
				if fr.Status != statusError || fr.Code != tc.status || fr.Error != tc.msg || fr.Result != nil {
					t.Errorf("async outcome = %+v, want error %d %q", fr, tc.status, tc.msg)
				}
			}

			if got := srv.Snapshot().ClientErrors - before; got != 3 {
				t.Errorf("client_errors rose by %d over the three endpoints, want 3", got)
			}
		})
	}
	awaitDrained(t, srv)
	if ie := srv.Snapshot().InternalErrors; ie != 0 {
		t.Errorf("internal_errors = %d, want 0", ie)
	}
}

// TestOversizedRequests covers both size limits: MaxTasks (graph too big)
// and MaxBody (request too big) must both yield 413.
func TestOversizedRequests(t *testing.T) {
	srv := NewServer(Config{MaxTasks: 100, MaxBody: 512, MaxBatch: 2})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	status, body, _ := post(t, ts, "/v1/map",
		`{"topology":"torus:16,16","graph":{"pattern":"mesh2d:16,16"}}`)
	wantStatus(t, status, 413, body) // 256 tasks > MaxTasks 100

	big := `{"topology":"torus:4,4","graph":{"pattern":"mesh2d:4,4"},"strategy":"topolb` +
		strings.Repeat(" ", 600) + `"}`
	status, body, _ = post(t, ts, "/v1/map", big)
	wantStatus(t, status, 413, body) // body > MaxBody 512

	status, body, _ = post(t, ts, "/v1/batch",
		`{"jobs":[{"topology":"torus:4,4","graph":{"pattern":"mesh2d:4,4"}},`+
			`{"topology":"torus:4,4","graph":{"pattern":"mesh2d:4,4"},"seed":2},`+
			`{"topology":"torus:4,4","graph":{"pattern":"mesh2d:4,4"},"seed":3}]}`)
	wantStatus(t, status, 413, body) // 3 jobs > MaxBatch 2
}

// TestQueueFull pins admission control with no workers: QueueDepth
// distinct jobs fill the semaphore, the next distinct job gets 429 with
// Retry-After, and cache hits / coalesced joins still get through because
// they don't consume admission slots.
func TestQueueFull(t *testing.T) {
	srv := NewServer(Config{Workers: 1, QueueDepth: 2, noWorkers: true})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	submit := func(seed string) (int, []byte, http.Header) {
		return post(t, ts, "/v1/jobs",
			`{"topology":"torus:4,4","graph":{"pattern":"mesh2d:4,4"},"seed":`+seed+`}`)
	}
	// Two distinct async jobs occupy both admission slots (no worker will
	// ever drain them).
	for _, seed := range []string{"1", "2"} {
		status, body, _ := submit(seed)
		wantStatus(t, status, 202, body)
	}
	for srv.Snapshot().QueueDepth != 2 {
		time.Sleep(time.Millisecond)
	}

	// A third distinct job must be rejected.
	status, body, hdr := post(t, ts, "/v1/map",
		`{"topology":"torus:4,4","graph":{"pattern":"mesh2d:4,4"},"seed":3}`)
	wantStatus(t, status, 429, body)
	if got := hdr.Get("Retry-After"); got != "1" {
		t.Errorf("Retry-After = %q, want %q", got, "1")
	}
	if rf := srv.Snapshot().RejectedFull; rf != 1 {
		t.Errorf("rejected_queue_full = %d, want 1", rf)
	}

	// A duplicate of an admitted job coalesces instead of being rejected:
	// it joins the queued flight, then cancels.
	j := mustName(t, Job{Graph: GraphSpec{Pattern: "mesh2d:4,4"}, Topology: "torus:4,4", Seed: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, status, err := srv.do(ctx, j)
	if status != 499 || err == nil {
		t.Fatalf("coalesced wait = (%d, %v), want 499 + context error", status, err)
	}
	st := srv.Snapshot()
	if st.CoalescedJoins != 1 {
		t.Errorf("coalesced_joins = %d, want 1", st.CoalescedJoins)
	}
	if st.QueueDepth != 2 {
		// The async submitters still hold both slots; the coalesced waiter
		// must not have released one on cancellation.
		t.Errorf("queue_depth = %d, want 2", st.QueueDepth)
	}
}

// TestCancellationReleasesAdmission pins the abort path: when every
// waiter of a queued flight cancels, the flight leaves the table at once
// but keeps its admission slot until the worker pops the aborted entry
// from the queue — at which point admission recovers fully.
func TestCancellationReleasesAdmission(t *testing.T) {
	srv := NewServer(Config{Workers: 1, QueueDepth: 2, CacheEntries: -1})
	defer srv.Close()

	// Occupy the single worker so queued flights stay queued.
	blocker := mustName(t, Job{Graph: GraphSpec{Pattern: "mesh2d:24,24"},
		Topology: "torus:24,24", Strategy: "topolb3", Seed: 1})
	blockerDone := make(chan struct{})
	go func() {
		defer close(blockerDone)
		if _, status, err := srv.do(context.Background(), blocker); status != 200 {
			t.Errorf("blocker = (%d, %v), want 200", status, err)
		}
	}()
	for srv.Snapshot().JobsRunning == 0 {
		runtime.Gosched()
	}

	// j1 queues behind the blocker, then every waiter cancels.
	j1 := mustName(t, Job{Graph: GraphSpec{Pattern: "mesh2d:4,4"}, Topology: "torus:4,4", Seed: 1})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, status, err := srv.do(ctx, j1)
		if status != 499 || err == nil {
			t.Errorf("cancelled do = (%d, %v), want 499 + context error", status, err)
		}
	}()
	for srv.Snapshot().QueueDepth != 2 {
		runtime.Gosched()
	}
	cancel()
	<-done

	// Aborting removes the flight from the table immediately (the
	// blocker's own entry is still there while it runs), so an equal job
	// would start a fresh flight...
	srv.table.mu.Lock()
	_, stillTabled := srv.table.flights[j1.key]
	srv.table.mu.Unlock()
	if stillTabled {
		t.Fatal("aborted flight still in the table")
	}
	// ...but the aborted entry still occupies its queue position and
	// admission slot, so a distinct job is rejected while the blocker runs.
	j2 := mustName(t, Job{Graph: GraphSpec{Pattern: "mesh2d:4,4"}, Topology: "torus:4,4", Seed: 2})
	if _, status, _ := srv.do(context.Background(), j2); status != 429 {
		t.Fatalf("distinct job while zombie holds the slot: status %d, want 429", status)
	}

	// Once the worker finishes the blocker it pops the aborted entry,
	// skips it, and returns both slots; admission recovers.
	<-blockerDone
	deadline := time.Now().Add(5 * time.Second)
	for srv.Snapshot().QueueDepth != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("admission slots never reclaimed: queue_depth=%d", srv.Snapshot().QueueDepth)
		}
		time.Sleep(time.Millisecond)
	}
	if _, status, err := srv.do(context.Background(), j2); status != 200 {
		t.Fatalf("job after recovery = (%d, %v), want 200", status, err)
	}
	if cn := srv.Snapshot().Cancelled; cn != 1 {
		t.Errorf("cancelled = %d, want 1", cn)
	}
}

// TestWorkersShareOneQueue pins the two properties of the single work
// queue: any idle worker takes the next admitted job whatever its key, and
// jobs are claimed in admission order across the whole server.
func TestWorkersShareOneQueue(t *testing.T) {
	tiny := func(seed int64) *job {
		return mustName(t, Job{Graph: GraphSpec{Pattern: "mesh2d:4,4"}, Topology: "torus:4,4", Seed: seed})
	}
	// submit runs one job to completion in its own goroutine.
	submit := func(t *testing.T, srv *Server, wg *sync.WaitGroup, seed int64) {
		j := tiny(seed)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, status, err := srv.do(context.Background(), j); status != 200 {
				t.Errorf("seed %d = (%d, %v), want 200", seed, status, err)
			}
		}()
	}
	var (
		met     atomic.Bool // first case: both jobs of the pair were running at once
		mu      sync.Mutex  // second case: guards order
		order   []int64     // seeds in the order compute saw them
		release = make(chan struct{})
	)
	cases := []struct {
		name    string
		workers int
		compute func(t *testing.T, srv *Server, spec *Job) // runs inside every compute
		drive   func(t *testing.T, srv *Server)
	}{
		// Each compute waits until both jobs of its pair are running, so a
		// pair finishes only if the two workers serve any two keys. Eight
		// pairs: under key-hashed routing about half would share a worker
		// and sit one behind the other until the deadline.
		{"two workers run any two jobs at once", 2,
			func(t *testing.T, srv *Server, _ *Job) {
				deadline := time.Now().Add(5 * time.Second)
				for !met.Load() {
					switch {
					case srv.Snapshot().JobsRunning == 2:
						met.Store(true)
					case time.Now().After(deadline):
						t.Error("a job computed alone for 5 s while its pair sat queued behind it")
						return
					default:
						time.Sleep(100 * time.Microsecond)
					}
				}
			},
			func(t *testing.T, srv *Server) {
				for seed := int64(1); seed <= 16; seed += 2 {
					met.Store(false)
					var wg sync.WaitGroup
					submit(t, srv, &wg, seed)
					submit(t, srv, &wg, seed+1)
					wg.Wait()
					awaitDrained(t, srv) // jobs_running is 0 again before the next pair reads it
				}
			}},
		// The only worker is held inside the first job while three more
		// are admitted one at a time; let go, it claims them in that order.
		{"one worker claims in admission order", 1,
			func(_ *testing.T, _ *Server, spec *Job) {
				mu.Lock()
				order = append(order, spec.Seed)
				mu.Unlock()
				if spec.Seed == 100 {
					<-release
				}
			},
			func(t *testing.T, srv *Server) {
				var wg sync.WaitGroup
				submit(t, srv, &wg, 100)
				for srv.Snapshot().JobsRunning == 0 {
					runtime.Gosched()
				}
				for i, seed := range []int64{7, 3, 5} {
					submit(t, srv, &wg, seed)
					for len(srv.queue) != i+1 {
						runtime.Gosched()
					}
				}
				close(release)
				wg.Wait()
				if want := []int64{100, 7, 3, 5}; !slices.Equal(order, want) {
					t.Errorf("claim order %v, want admission order %v", order, want)
				}
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var srv *Server
			setFaultHook(t, func(stage string, spec *Job) {
				if stage == "compute" {
					tc.compute(t, srv, spec)
				}
			})
			srv = NewServer(Config{Workers: tc.workers, CacheEntries: -1})
			defer srv.Close()
			tc.drive(t, srv)
		})
	}
}

// TestQueueFullStorm floods a one-worker, four-slot server with 64
// distinct jobs while the worker is held inside the first one it claims:
// exactly QueueDepth are admitted and answered 200, every other gets 429
// with Retry-After and is counted, and once the worker is let go and
// Close returns nothing is left behind — no slot, no flight, no goroutine.
func TestQueueFullStorm(t *testing.T) {
	const requests, depth = 64, 4
	goroutines := runtime.NumGoroutine()
	release := make(chan struct{})
	setFaultHook(t, func(stage string, _ *Job) {
		if stage == "compute" {
			<-release
		}
	})
	srv := NewServer(Config{Workers: 1, QueueDepth: depth, CacheEntries: -1})
	ts := httptest.NewServer(srv.Handler())

	var wg sync.WaitGroup
	statuses := make([]int, requests)
	retryAfter := make([]string, requests)
	for i := range statuses {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := ts.Client().Post(ts.URL+"/v1/map", "application/json", strings.NewReader(
				`{"topology":"torus:4,4","graph":{"pattern":"mesh2d:4,4"},"seed":`+strconv.Itoa(i+1)+`}`))
			if err != nil {
				t.Error(err)
				return
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			statuses[i], retryAfter[i] = resp.StatusCode, resp.Header.Get("Retry-After")
		}(i)
	}
	// No slot comes back while the worker is held, so the storm is over
	// when all but depth requests have been turned away.
	deadline := time.Now().Add(10 * time.Second)
	for srv.Snapshot().RejectedFull != requests-depth && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if qd := srv.Snapshot().QueueDepth; qd != depth {
		t.Errorf("with the worker held: queue_depth = %d, want %d", qd, depth)
	}
	close(release)
	wg.Wait()
	ts.Close()
	srv.Close()

	ok, full := 0, 0
	for i, status := range statuses {
		switch {
		case status == 200:
			ok++
		case status == 429 && retryAfter[i] == "1":
			full++
		default:
			t.Errorf("request %d: status %d, Retry-After %q; want 200, or 429 with Retry-After 1", i, status, retryAfter[i])
		}
	}
	if rf := srv.Snapshot().RejectedFull; ok != depth || full != requests-depth || rf != int64(full) {
		t.Errorf("%d answered 200, %d answered 429, rejected_queue_full = %d; want %d, %d, %d",
			ok, full, rf, depth, requests-depth, requests-depth)
	}
	awaitDrained(t, srv) // no slot, no running job, no flight
	deadline = time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > goroutines {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before the server started", runtime.NumGoroutine(), goroutines)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDefaultConfig pins DefaultConfig as the one place defaults live:
// the zero Config and DefaultConfig() start the same server, and /stats
// reports its worker count.
func TestDefaultConfig(t *testing.T) {
	zero, def := NewServer(Config{}), NewServer(DefaultConfig())
	defer zero.Close()
	defer def.Close()
	z, d := zero.Snapshot(), def.Snapshot()
	if z.QueueCap != d.QueueCap || z.Workers != d.Workers || zero.cfg != def.cfg {
		t.Errorf("Config{} runs %+v, DefaultConfig() runs %+v", zero.cfg, def.cfg)
	}
	if z.QueueCap != 256 || z.Workers != runtime.GOMAXPROCS(0) {
		t.Errorf("queue_cap = %d, workers = %d; want 256, GOMAXPROCS = %d", z.QueueCap, z.Workers, runtime.GOMAXPROCS(0))
	}
	ts := httptest.NewServer(zero.Handler())
	defer ts.Close()
	status, doc := doJSON(t, ts, "GET", "/stats", "")
	wantStatus(t, status, 200, nil)
	if got, ok := doc["workers"].(float64); !ok || int(got) != z.Workers {
		t.Errorf("/stats workers = %v, want %d", doc["workers"], z.Workers)
	}
}

// TestFetchUnknownAndConsume pins async fetch semantics: unknown ids are
// 404, and fetching a finished job consumes it.
func TestFetchUnknownAndConsume(t *testing.T) {
	srv := NewServer(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/v1/jobs/j999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Fatalf("unknown id: status %d, want 404", resp.StatusCode)
	}

	status, body, _ := post(t, ts, "/v1/jobs", `{"topology":"torus:4,4","graph":{"pattern":"mesh2d:4,4"}}`)
	wantStatus(t, status, 202, body)
	var sub submitResponse
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}
	var fr fetchResponse
	for {
		resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + sub.ID)
		if err != nil {
			t.Fatal(err)
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != 200 {
			t.Fatalf("fetch: status %d: %s", resp.StatusCode, data)
		}
		if err := json.Unmarshal(data, &fr); err != nil {
			t.Fatal(err)
		}
		if fr.Status != statusPending {
			break
		}
	}
	if fr.Status != statusDone || len(fr.Result) == 0 {
		t.Fatalf("fetch = %+v, want done with a result", fr)
	}
	// Second fetch: consumed.
	resp, err = ts.Client().Get(ts.URL + "/v1/jobs/" + sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Fatalf("re-fetch consumed job: status %d, want 404", resp.StatusCode)
	}
	if ap := srv.Snapshot().AsyncPending; ap != 0 {
		t.Errorf("async_pending = %d after consuming fetch, want 0", ap)
	}
}

// TestAsyncStoreFull pins the MaxAsync bound.
func TestAsyncStoreFull(t *testing.T) {
	srv := NewServer(Config{MaxAsync: 2, noWorkers: true})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for seed := 1; seed <= 2; seed++ {
		status, body, _ := post(t, ts, "/v1/jobs",
			`{"topology":"torus:4,4","graph":{"pattern":"mesh2d:4,4"},"seed":`+string(rune('0'+seed))+`}`)
		wantStatus(t, status, 202, body)
	}
	status, body, hdr := post(t, ts, "/v1/jobs",
		`{"topology":"torus:4,4","graph":{"pattern":"mesh2d:4,4"},"seed":9}`)
	wantStatus(t, status, 429, body)
	if got := hdr.Get("Retry-After"); got != "1" {
		t.Errorf("Retry-After = %q, want %q", got, "1")
	}
}

// TestStrategyFailure maps a strategy error to 422.
func TestStrategyFailure(t *testing.T) {
	srv := NewServer(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// hybrid:8x8 needs a coordinate grid divisible into 8x8 blocks;
	// torus:4,4 cannot host it, so Map fails at compute time.
	status, body, _ := post(t, ts, "/v1/map",
		`{"topology":"torus:4,4","graph":{"pattern":"mesh2d:4,4"},"strategy":"hybrid:8x8"}`)
	wantStatus(t, status, 422, body)
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil || eb.Error == "" {
		t.Fatalf("want JSON error body, got %s", body)
	}
}

// mustName names spec, as a handler does before Server.do.
func mustName(t *testing.T, spec Job) *job {
	t.Helper()
	j, err := name(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// mustBuild names spec and builds its operands, ready for compute.
func mustBuild(t *testing.T, spec Job) *job {
	t.Helper()
	j := mustName(t, spec)
	if err := j.build(); err != nil {
		t.Fatal(err)
	}
	return j
}
