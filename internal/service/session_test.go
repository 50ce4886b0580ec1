package service

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/taskgraph"
	"repro/internal/topology"
)

// sessionDB is an 8-chare zero-load database on 4 processors: chares
// 0/1 and 2/3 talk across the mesh diagonal (distance 2 on mesh:2,2),
// so refinement always finds profitable moves.
const sessionDB = `{
  "num_procs": 4,
  "chares": [
    {"load":0,"proc":0},{"load":0,"proc":3},
    {"load":0,"proc":1},{"load":0,"proc":2},
    {"load":0,"proc":0},{"load":0,"proc":1},
    {"load":0,"proc":2},{"load":0,"proc":3}
  ],
  "comms": [{"from":0,"to":1,"bytes":1000000},{"from":2,"to":3,"bytes":500000}]
}`

func newSessionSpec(extra string) string {
	return `{"topology":"mesh:2,2","db":` + sessionDB + extra + `}`
}

// doJSON issues a request and decodes the JSON body into a map.
func doJSON(t *testing.T, ts *httptest.Server, method, path, payload string) (int, map[string]any) {
	t.Helper()
	var body io.Reader
	if payload != "" {
		body = strings.NewReader(payload)
	}
	req, err := http.NewRequest(method, ts.URL+path, body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if len(raw) > 0 {
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatalf("%s %s: body is not JSON: %s", method, path, raw)
		}
	}
	return resp.StatusCode, m
}

// sessionHopBytes recomputes hop-bytes for the database's graph under a
// mapping returned on the wire.
func sessionHopBytes(t *testing.T, mapping []any) float64 {
	t.Helper()
	b := taskgraph.NewBuilder(8)
	b.AddEdge(0, 1, 1000000)
	b.AddEdge(2, 3, 500000)
	g := b.Build("session")
	topo := topology.MustMesh(2, 2)
	m := make([]int, len(mapping))
	for i, v := range mapping {
		m[i] = int(v.(float64))
	}
	return core.HopBytes(g, topo, m)
}

func TestSessionLifecycle(t *testing.T) {
	srv := NewServer(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	status, created := doJSON(t, ts, "POST", "/v1/sessions", newSessionSpec(""))
	wantStatus(t, status, 201, nil)
	id := created["id"].(string)
	if created["version"].(float64) != 1 {
		t.Fatalf("new session version = %v, want 1", created["version"])
	}
	if created["tasks"].(float64) != 8 || created["procs"].(float64) != 4 {
		t.Fatalf("bad shape: %v", created)
	}
	// Initial hop-bytes: 1e6·d(0,3) + 5e5·d(1,2) = 2e6 + 1e6 on mesh:2,2.
	if hb := created["hop_bytes"].(float64); hb != 3e6 {
		t.Fatalf("initial hop_bytes = %v, want 3e6", hb)
	}

	// A watch for anything older than the current version returns the
	// current mapping immediately.
	status, ev := doJSON(t, ts, "GET", "/v1/sessions/"+id+"/watch?version=0", "")
	wantStatus(t, status, 200, nil)
	if ev["event"] != "mapping" || ev["version"].(float64) != 1 {
		t.Fatalf("watch event = %v", ev)
	}

	// A small load delta applies, then refinement runs and finds the
	// diagonal pairs worth joining.
	status, resp := doJSON(t, ts, "POST", "/v1/sessions/"+id+"/deltas",
		`{"deltas":[{"kind":"load","task":4,"load":1}]}`)
	wantStatus(t, status, 200, nil)
	if resp["remapped"] != true {
		t.Fatalf("expected a pushed remap, got %v", resp)
	}
	if resp["version"].(float64) != 2 {
		t.Fatalf("version after push = %v, want 2", resp["version"])
	}
	pushedHB := resp["hop_bytes"].(float64)
	if pushedHB >= 3e6 {
		t.Fatalf("push did not improve hop-bytes: %v", pushedHB)
	}

	// The snapshot and a fresh watch agree with the push, and the wire
	// hop-bytes matches an independent recompute from the wire mapping.
	status, snap := doJSON(t, ts, "GET", "/v1/sessions/"+id, "")
	wantStatus(t, status, 200, nil)
	if snap["version"].(float64) != 2 {
		t.Fatalf("snapshot version = %v", snap["version"])
	}
	if got := sessionHopBytes(t, snap["mapping"].([]any)); math.Float64bits(got) != math.Float64bits(pushedHB) {
		t.Fatalf("wire hop_bytes %v != recompute %v", pushedHB, got)
	}

	status, _ = doJSON(t, ts, "DELETE", "/v1/sessions/"+id, "")
	wantStatus(t, status, 200, nil)
	status, _ = doJSON(t, ts, "GET", "/v1/sessions/"+id, "")
	wantStatus(t, status, 404, nil)
	status, _ = doJSON(t, ts, "POST", "/v1/sessions/"+id+"/deltas", `{"deltas":[{"kind":"load","task":0,"load":1}]}`)
	wantStatus(t, status, 404, nil)
}

func TestSessionThresholdSuppressesRemap(t *testing.T) {
	srv := NewServer(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// A prohibitive migration cost makes every candidate unprofitable:
	// deltas apply but no remap is ever pushed.
	status, created := doJSON(t, ts, "POST", "/v1/sessions", newSessionSpec(`,"migration_cost":1e12`))
	wantStatus(t, status, 201, nil)
	id := created["id"].(string)
	status, resp := doJSON(t, ts, "POST", "/v1/sessions/"+id+"/deltas",
		`{"deltas":[{"kind":"comm","task":4,"other":5,"bytes":777}]}`)
	wantStatus(t, status, 200, nil)
	if resp["remapped"] == true || resp["version"].(float64) != 1 {
		t.Fatalf("remap pushed despite prohibitive migration cost: %v", resp)
	}
	st := srv.Snapshot()
	if st.Sessions.RemapsSuppressed == 0 {
		t.Fatal("remaps_suppressed did not count the suppressed remap")
	}
}

func TestSessionMigrationBudget(t *testing.T) {
	srv := NewServer(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Both diagonal pairs want to move, but the budget admits one task.
	status, created := doJSON(t, ts, "POST", "/v1/sessions", newSessionSpec(`,"migration_budget":1`))
	wantStatus(t, status, 201, nil)
	id := created["id"].(string)
	initial := created["mapping"].([]any)

	status, resp := doJSON(t, ts, "POST", "/v1/sessions/"+id+"/deltas",
		`{"deltas":[{"kind":"load","task":0,"load":0}]}`)
	wantStatus(t, status, 200, nil)
	if resp["remapped"] != true {
		t.Fatalf("budget 1 should still allow one profitable move: %v", resp)
	}
	if mig := resp["migrations"].(float64); mig > 1 {
		t.Fatalf("migrations = %v exceeds budget 1", mig)
	}
	_, snap := doJSON(t, ts, "GET", "/v1/sessions/"+id, "")
	moved := 0
	for i, v := range snap["mapping"].([]any) {
		if v.(float64) != initial[i].(float64) {
			moved++
		}
	}
	if moved > 1 {
		t.Fatalf("pushed mapping moved %d tasks, budget is 1", moved)
	}
}

func TestSessionWatchLongPollAndTimeout(t *testing.T) {
	srv := NewServer(Config{WatchTimeout: 80 * time.Millisecond})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	_, created := doJSON(t, ts, "POST", "/v1/sessions", newSessionSpec(""))
	id := created["id"].(string)

	// Parked watcher times out with a terminal "timeout" event when
	// nothing is pushed.
	status, ev := doJSON(t, ts, "GET", "/v1/sessions/"+id+"/watch?version=1", "")
	wantStatus(t, status, 200, nil)
	if ev["event"] != "timeout" {
		t.Fatalf("idle watch event = %v, want timeout", ev)
	}
	if srv.Snapshot().Sessions.WatchTimeouts == 0 {
		t.Fatal("watch_timeouts not counted")
	}

	// A parked watcher resolves with the pushed mapping.
	type watchResult struct {
		status int
		ev     map[string]any
	}
	done := make(chan watchResult, 1)
	go func() {
		s, e := doJSON(t, ts, "GET", "/v1/sessions/"+id+"/watch?version=1", "")
		done <- watchResult{s, e}
	}()
	waitForWatcher(t, srv, 1)
	status, resp := doJSON(t, ts, "POST", "/v1/sessions/"+id+"/deltas",
		`{"deltas":[{"kind":"load","task":0,"load":2}]}`)
	wantStatus(t, status, 200, nil)
	if resp["remapped"] != true {
		t.Fatalf("expected push, got %v", resp)
	}
	res := <-done
	wantStatus(t, res.status, 200, nil)
	if res.ev["event"] != "mapping" || res.ev["version"].(float64) != 2 {
		t.Fatalf("parked watch event = %v", res.ev)
	}
}

// waitForWatcher blocks until n watchers are parked on the server (the
// watcher gauge is the handler's first action after validation).
func waitForWatcher(t *testing.T, srv *Server, n int64) {
	t.Helper()
	for i := 0; i < 500; i++ {
		if srv.stats.watchersActive.Load() >= n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("watcher never parked")
}

// TestSessionShutdownTerminatesWatch pins graceful shutdown: a parked
// long-poll resolves with a terminal {"event":"shutdown"} body when the
// service closes, before the HTTP listener is torn down.
func TestSessionShutdownTerminatesWatch(t *testing.T) {
	srv := NewServer(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	_, created := doJSON(t, ts, "POST", "/v1/sessions", newSessionSpec(""))
	id := created["id"].(string)

	done := make(chan map[string]any, 1)
	go func() {
		_, ev := doJSON(t, ts, "GET", "/v1/sessions/"+id+"/watch?version=1", "")
		done <- ev
	}()
	waitForWatcher(t, srv, 1)
	srv.Close()
	select {
	case ev := <-done:
		if ev["event"] != "shutdown" {
			t.Fatalf("watch event at shutdown = %v, want shutdown", ev)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("watcher still parked after Close")
	}
}

func TestSessionEviction(t *testing.T) {
	srv := NewServer(Config{MaxSessions: 2})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	_, s1 := doJSON(t, ts, "POST", "/v1/sessions", newSessionSpec(""))
	id1 := s1["id"].(string)

	// Park a watcher on the soon-to-be-evicted session.
	done := make(chan map[string]any, 1)
	go func() {
		_, ev := doJSON(t, ts, "GET", "/v1/sessions/"+id1+"/watch?version=1", "")
		done <- ev
	}()
	waitForWatcher(t, srv, 1)

	_, s2 := doJSON(t, ts, "POST", "/v1/sessions", newSessionSpec(""))
	// Touch s1 so s2 becomes the LRU victim of the third create.
	status, _ := doJSON(t, ts, "GET", "/v1/sessions/"+id1, "")
	wantStatus(t, status, 200, nil)
	_, s3 := doJSON(t, ts, "POST", "/v1/sessions", newSessionSpec(""))

	status, _ = doJSON(t, ts, "GET", "/v1/sessions/"+s2["id"].(string), "")
	wantStatus(t, status, 404, nil)
	status, _ = doJSON(t, ts, "GET", "/v1/sessions/"+id1, "")
	wantStatus(t, status, 200, nil)
	status, _ = doJSON(t, ts, "GET", "/v1/sessions/"+s3["id"].(string), "")
	wantStatus(t, status, 200, nil)
	if got := srv.Snapshot().Sessions.Evicted; got != 1 {
		t.Fatalf("evicted = %d, want 1", got)
	}

	// Evicting the watched session: create two more so id1 is the victim,
	// and the parked watcher gets a terminal "closed" event.
	doJSON(t, ts, "POST", "/v1/sessions", newSessionSpec(""))
	select {
	case ev := <-done:
		if ev["event"] != "closed" {
			t.Fatalf("watch event after eviction = %v, want closed", ev)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("watcher still parked after eviction")
	}
}

func TestSessionErrors(t *testing.T) {
	srv := NewServer(Config{MaxTasks: 8, MaxSessionEdges: 2})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cases := []struct {
		name    string
		payload string
		status  int
	}{
		{"missing topology", `{"db":` + sessionDB + `}`, 400},
		{"missing db", `{"topology":"mesh:2,2"}`, 400},
		{"unknown topology", `{"topology":"moebius:2","db":` + sessionDB + `}`, 400},
		{"unknown field", newSessionSpec(`,"bogus":1`), 400},
		{"negative threshold", newSessionSpec(`,"threshold":-0.5`), 400},
		{"negative budget", newSessionSpec(`,"migration_budget":-1`), 400},
		{"negative cost", newSessionSpec(`,"migration_cost":-2`), 400},
		{"topology mismatch", `{"topology":"mesh:4,4","db":` + sessionDB + `}`, 422},
		{"too many chares", `{"topology":"mesh:2,2","db":{"num_procs":4,"chares":[
			{"proc":0},{"proc":0},{"proc":0},{"proc":0},{"proc":0},
			{"proc":0},{"proc":0},{"proc":0},{"proc":0}]}}`, 413},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, _ := doJSON(t, ts, "POST", "/v1/sessions", tc.payload)
			wantStatus(t, status, tc.status, nil)
		})
	}

	_, created := doJSON(t, ts, "POST", "/v1/sessions", newSessionSpec(""))
	id := created["id"].(string)
	deltaCases := []struct {
		name    string
		payload string
		status  int
	}{
		{"empty batch", `{"deltas":[]}`, 400},
		{"unknown kind", `{"deltas":[{"kind":"warp","task":0}]}`, 400},
		{"task out of range", `{"deltas":[{"kind":"load","task":99,"load":1}]}`, 400},
		{"self comm", `{"deltas":[{"kind":"comm","task":3,"other":3,"bytes":1}]}`, 400},
		{"task bound", `{"deltas":[{"kind":"add","proc":0}]}`, 413},
		{"edge bound", `{"deltas":[{"kind":"comm","task":4,"other":5,"bytes":9}]}`, 413},
		// Last: removing task 1 also removes the (0,1) edge, freeing edge
		// headroom for any case after this one.
		{"dead task", `{"deltas":[{"kind":"remove","task":1},{"kind":"load","task":1,"load":1}]}`, 400},
	}
	for _, tc := range deltaCases {
		t.Run(tc.name, func(t *testing.T) {
			status, _ := doJSON(t, ts, "POST", "/v1/sessions/"+id+"/deltas", tc.payload)
			wantStatus(t, status, tc.status, nil)
		})
	}
	t.Run("watch bad version", func(t *testing.T) {
		status, _ := doJSON(t, ts, "GET", "/v1/sessions/"+id+"/watch?version=minus", "")
		wantStatus(t, status, 400, nil)
	})
	t.Run("watch unknown session", func(t *testing.T) {
		status, _ := doJSON(t, ts, "GET", "/v1/sessions/nope/watch", "")
		wantStatus(t, status, 404, nil)
	})
	t.Run("delete unknown session", func(t *testing.T) {
		status, _ := doJSON(t, ts, "DELETE", "/v1/sessions/nope", "")
		wantStatus(t, status, 404, nil)
	})
}

// TestSessionRefusesOverflowingBytes: a comm volume above 2^53 would take
// a session's hop-bytes to +Inf, which JSON cannot carry, and leave every
// later response an empty body. In a delta and in a new session's db it is
// a 400 with a JSON error body instead; nothing fails to write, and the
// session keeps its hop-bytes.
func TestSessionRefusesOverflowingBytes(t *testing.T) {
	srv := NewServer(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	_, created := doJSON(t, ts, "POST", "/v1/sessions", newSessionSpec(""))
	id, hb := created["id"].(string), created["hop_bytes"]
	huge := strings.Replace(sessionDB, `"bytes":1000000`, `"bytes":1e308`, 1)
	requests := []struct{ name, path, payload string }{
		{"delta", "/v1/sessions/" + id + "/deltas", `{"deltas":[{"kind":"comm","task":0,"other":1,"bytes":1e308}]}`},
		{"db", "/v1/sessions", `{"topology":"mesh:2,2","db":` + huge + `}`},
	}
	for _, rq := range requests {
		status, body := doJSON(t, ts, "POST", rq.path, rq.payload)
		if msg, _ := body["error"].(string); status != 400 || !strings.Contains(msg, "above 2^53") {
			t.Errorf("%s: status %d body %v, want 400 naming the 2^53 bound", rq.name, status, body)
		}
	}
	status, info := doJSON(t, ts, "GET", "/v1/sessions/"+id, "")
	if status != 200 || info["hop_bytes"] != hb {
		t.Errorf("GET after the refusals: status %d hop_bytes %v, want 200 and %v", status, info["hop_bytes"], hb)
	}
	if n := srv.stats.writeFailures.Load(); n != 0 {
		t.Errorf("write_failures = %d, want 0", n)
	}
}

// TestStatsSessionFields pins the /stats wire contract for the session
// and incremental-engine counters.
func TestStatsSessionFields(t *testing.T) {
	srv := NewServer(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	_, created := doJSON(t, ts, "POST", "/v1/sessions", newSessionSpec(""))
	id := created["id"].(string)
	doJSON(t, ts, "POST", "/v1/sessions/"+id+"/deltas", `{"deltas":[{"kind":"load","task":0,"load":3}]}`)
	doJSON(t, ts, "GET", "/v1/sessions/"+id+"/watch?version=0", "")

	status, st := doJSON(t, ts, "GET", "/stats", "")
	wantStatus(t, status, 200, nil)
	sessions, ok := st["sessions"].(map[string]any)
	if !ok {
		t.Fatalf("/stats has no sessions block: %v", st)
	}
	for _, key := range []string{
		"active", "created", "closed", "evicted", "deltas_applied",
		"remaps_pushed", "remaps_suppressed", "watch_requests",
		"watch_timeouts", "watchers_active",
	} {
		if _, ok := sessions[key]; !ok {
			t.Errorf("sessions stats missing %q", key)
		}
	}
	if sessions["active"].(float64) != 1 || sessions["created"].(float64) != 1 {
		t.Errorf("sessions gauge off: %v", sessions)
	}
	if sessions["deltas_applied"].(float64) != 1 || sessions["watch_requests"].(float64) != 1 {
		t.Errorf("sessions counters off: %v", sessions)
	}

	system, ok := st["system"].(map[string]any)
	if !ok {
		t.Fatalf("/stats has no system block: %v", st)
	}
	inc, ok := system["incremental"].(map[string]any)
	if !ok {
		t.Fatalf("system stats missing incremental block: %v", system)
	}
	for _, key := range []string{
		"states", "mutations", "edge_updates",
		"refine_calls", "refine_swaps", "refine_moves",
		"refine_evaluated", "refine_skipped",
	} {
		if _, ok := inc[key]; !ok {
			t.Errorf("incremental stats missing %q", key)
		}
	}
	if inc["states"].(float64) == 0 || inc["mutations"].(float64) == 0 {
		t.Errorf("incremental counters did not move: %v", inc)
	}
}

// TestStressSessions hammers the session subsystem from many goroutines
// — delta batches on shared sessions, parked watchers, create/delete
// churn with LRU eviction — and is the CI -race workload at GOMAXPROCS
// 2 and 8.
func TestStressSessions(t *testing.T) {
	srv := NewServer(Config{MaxSessions: 4, WatchTimeout: 40 * time.Millisecond})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	ids := make([]string, 3)
	for i := range ids {
		status, created := doJSON(t, ts, "POST", "/v1/sessions", newSessionSpec(""))
		wantStatus(t, status, 201, nil)
		ids[i] = created["id"].(string)
	}

	const (
		goroutines = 12
		iterations = 25
	)
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iterations; i++ {
				id := ids[(g+i)%len(ids)]
				switch g % 4 {
				case 0: // delta writer
					payload := fmt.Sprintf(`{"deltas":[{"kind":"load","task":%d,"load":%d}]}`, (g+i)%8, i)
					status, _ := doJSON(t, ts, "POST", "/v1/sessions/"+id+"/deltas", payload)
					if status != 200 && status != 404 && status != 429 {
						errs <- fmt.Sprintf("deltas status %d", status)
						return
					}
				case 1: // watcher
					status, ev := doJSON(t, ts, "GET", "/v1/sessions/"+id+"/watch?version=9999", "")
					if status != 200 && status != 404 {
						errs <- fmt.Sprintf("watch status %d", status)
						return
					}
					if status == 200 {
						switch ev["event"] {
						case "mapping", "timeout", "closed", "shutdown":
						default:
							errs <- fmt.Sprintf("watch event %v", ev["event"])
							return
						}
					}
				case 2: // churn: create and delete scratch sessions
					status, created := doJSON(t, ts, "POST", "/v1/sessions", newSessionSpec(""))
					if status == 201 {
						doJSON(t, ts, "DELETE", "/v1/sessions/"+created["id"].(string), "")
					} else if status != 429 {
						errs <- fmt.Sprintf("create status %d", status)
						return
					}
				default: // reader
					status, _ := doJSON(t, ts, "GET", "/v1/sessions/"+id, "")
					if status != 200 && status != 404 {
						errs <- fmt.Sprintf("get status %d", status)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}

	// Live sessions still answer with internally consistent state.
	for _, id := range ids {
		status, snap := doJSON(t, ts, "GET", "/v1/sessions/"+id, "")
		if status == 404 {
			continue
		}
		wantStatus(t, status, 200, nil)
		if snap["tasks"].(float64) != 8 {
			t.Errorf("session %s lost tasks: %v", id, snap)
		}
	}
	if st := srv.Snapshot(); st.Sessions.WatchersActive != 0 {
		t.Errorf("watchers_active = %d after drain", st.Sessions.WatchersActive)
	}
}
