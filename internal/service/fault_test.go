package service

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// faultSeed marks the jobs the injected faults hit; every other job is
// healthy.
const faultSeed = 666

func faultyJob() Job {
	return Job{Graph: GraphSpec{Pattern: "mesh2d:4,4"}, Topology: "torus:4,4", Seed: faultSeed}
}

// TestPanicContained injects a panic into build (run by the flight's
// creator while joiners wait on the flight) and into compute (run by the
// worker): every request sharing the flight must get the same typed
// 500, the fault must be counted once, no admission slot or flight may
// leak, and the daemon's only worker must keep serving every endpoint.
func TestPanicContained(t *testing.T) {
	for _, stage := range []string{"build", "compute"} {
		t.Run(stage, func(t *testing.T) {
			const requests = 6
			bad := faultyJob()
			key := mustKey(t, bad)
			var srv *Server
			var gather atomic.Bool // hold the fault until every request shares the flight
			gather.Store(true)
			setFaultHook(t, func(s string, spec *Job) {
				if s != stage || spec.Seed != faultSeed {
					return
				}
				if gather.Load() {
					awaitWaiters(t, srv, key, requests)
				}
				panic("injected " + stage + " fault")
			})
			srv = NewServer(Config{Workers: 1, QueueDepth: 2})
			defer srv.Close()
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			wantMsg := "job: internal error in " + stage + ": injected " + stage + " fault"

			var wg sync.WaitGroup
			statuses := make([]int, requests)
			bodies := make([][]byte, requests)
			for i := range statuses {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					statuses[i], bodies[i] = postJSON(t, ts.Client(), ts.URL+"/v1/map", bad)
				}(i)
			}
			wg.Wait()
			gather.Store(false)
			for i := range statuses {
				var eb errorBody
				if err := json.Unmarshal(bodies[i], &eb); err != nil || statuses[i] != 500 || eb.Error != wantMsg {
					t.Errorf("request %d: status %d body %s; want 500 %q", i, statuses[i], bodies[i], wantMsg)
				}
			}
			awaitDrained(t, srv)
			st := srv.Snapshot()
			if st.InternalErrors != 1 || st.ClientErrors != 0 || st.JobsComputed != 0 || st.CoalescedJoins != requests-1 {
				t.Errorf("internal_errors = %d, client_errors = %d, computed = %d, joins = %d; want 1, 0, 0, %d",
					st.InternalErrors, st.ClientErrors, st.JobsComputed, st.CoalescedJoins, requests-1)
			}

			// The daemon is alive on every endpoint, and a failure is never
			// cached: the faulty job fails afresh beside a healthy one.
			good := bad
			good.Seed = 1
			status, body := postJSON(t, ts.Client(), ts.URL+"/v1/batch", batchRequest{Jobs: []Job{bad, good}})
			var br batchResponse
			if err := json.Unmarshal(body, &br); err != nil || status != 200 || len(br.Results) != 2 {
				t.Fatalf("batch: status %d body %s (%v)", status, body, err)
			}
			if e := br.Results[0]; e.Status != 500 || e.Error != wantMsg {
				t.Errorf("faulty batch entry = %d %q, want 500 %q", e.Status, e.Error, wantMsg)
			}
			if e := br.Results[1]; e.Status != 200 || len(e.Result) == 0 {
				t.Errorf("healthy batch entry = %d %q", e.Status, e.Error)
			}
			status, body = postJSON(t, ts.Client(), ts.URL+"/v1/jobs", bad)
			if status != 202 {
				t.Fatalf("submit: status %d: %s", status, body)
			}
			var sub submitResponse
			if err := json.Unmarshal(body, &sub); err != nil {
				t.Fatal(err)
			}
			if fr := awaitAsync(t, ts, sub.ID); fr.Status != statusError || fr.Code != 500 || fr.Error != wantMsg {
				t.Errorf("async outcome = %+v, want error 500 %q", fr, wantMsg)
			}
			if status, body := postJSON(t, ts.Client(), ts.URL+"/v1/map", good); status != 200 {
				t.Errorf("healthy job after the faults: status %d: %s", status, body)
			}
			awaitDrained(t, srv)
			if st := srv.Snapshot(); st.InternalErrors != 3 || st.ClientErrors != 0 {
				t.Errorf("internal_errors = %d, client_errors = %d; want 3, 0", st.InternalErrors, st.ClientErrors)
			}
		})
	}
}

// TestPanicWhileNaming covers the one job that builds before it has a
// key or a flight — auto with no explicit budget: the fault is contained
// in the request that caused it.
func TestPanicWhileNaming(t *testing.T) {
	setFaultHook(t, func(string, *Job) { panic("injected fault") })
	srv := NewServer(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	bad := autoJob()
	status, body := postJSON(t, ts.Client(), ts.URL+"/v1/map", bad)
	if status != 500 || !strings.Contains(string(body), "job: internal error in name: injected fault") {
		t.Errorf("status %d body %s, want a typed 500", status, body)
	}
	if st := srv.Snapshot(); st.InternalErrors != 1 {
		t.Errorf("internal_errors = %d, want 1", st.InternalErrors)
	}
}

// TestSessionPanicContained injects a panic into each stage of a delta
// batch: the request gets a typed 500, the fault is counted, the
// admission slot and the session lock come back, and the session — its
// state possibly half-applied — is closed: the parked watcher gets
// "closed" and later requests 404, while the daemon goes on serving.
func TestSessionPanicContained(t *testing.T) {
	for _, stage := range []string{"apply", "refine"} {
		t.Run(stage, func(t *testing.T) {
			var armed atomic.Bool
			setFaultHook(t, func(s string, _ *Job) {
				if s == "session-"+stage && armed.Load() {
					panic("injected " + stage + " fault")
				}
			})
			srv := NewServer(Config{})
			defer srv.Close()
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()

			status, created := doJSON(t, ts, "POST", "/v1/sessions", newSessionSpec(""))
			wantStatus(t, status, 201, nil)
			id := created["id"].(string)
			batch := `{"deltas":[{"kind":"load","task":0,"load":2}]}`
			if status, _ := doJSON(t, ts, "POST", "/v1/sessions/"+id+"/deltas", batch); status != 200 {
				t.Fatalf("healthy batch: status %d", status)
			}

			watched := make(chan map[string]any, 1)
			go func() {
				_, ev := doJSON(t, ts, "GET", "/v1/sessions/"+id+"/watch?version=9999", "")
				watched <- ev
			}()
			waitForWatcher(t, srv, 1)

			armed.Store(true)
			status, body := doJSON(t, ts, "POST", "/v1/sessions/"+id+"/deltas", batch)
			armed.Store(false)
			want := "session: internal error in " + stage + ": injected " + stage + " fault"
			if status != 500 || body["error"] != want {
				t.Fatalf("faulty batch: status %d body %v; want 500 %q", status, body, want)
			}
			select {
			case ev := <-watched:
				if ev["event"] != "closed" {
					t.Errorf("watcher got %v, want closed", ev)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("watcher still parked after the session faulted")
			}
			for _, req := range [][3]string{
				{"POST", "/v1/sessions/" + id + "/deltas", batch},
				{"GET", "/v1/sessions/" + id, ""},
				{"GET", "/v1/sessions/" + id + "/watch", ""},
				{"DELETE", "/v1/sessions/" + id, ""},
			} {
				if status, _ := doJSON(t, ts, req[0], req[1], req[2]); status != 404 {
					t.Errorf("%s %s after the fault: status %d, want 404", req[0], req[1], status)
				}
			}
			st := srv.Snapshot()
			if st.InternalErrors != 1 || st.QueueDepth != 0 || st.Sessions.Active != 0 || st.Sessions.Closed != 1 {
				t.Errorf("internal_errors = %d, queue_depth = %d, active = %d, closed = %d; want 1, 0, 0, 1",
					st.InternalErrors, st.QueueDepth, st.Sessions.Active, st.Sessions.Closed)
			}

			// The daemon is alive: a new session streams, a job maps.
			status, created = doJSON(t, ts, "POST", "/v1/sessions", newSessionSpec(""))
			wantStatus(t, status, 201, nil)
			if status, _ := doJSON(t, ts, "POST", "/v1/sessions/"+created["id"].(string)+"/deltas", batch); status != 200 {
				t.Errorf("batch on a new session after the fault: status %d", status)
			}
			good := faultyJob()
			good.Seed = 1
			if status, body := postJSON(t, ts.Client(), ts.URL+"/v1/map", good); status != 200 {
				t.Errorf("map after the fault: status %d: %s", status, body)
			}
		})
	}
}

// TestSessionFaultsUnderStress is the containment under contention (the
// CI -race mapping-service step runs it at GOMAXPROCS 2 and 8): writers
// hammer three sessions while every seventh batch stage panics. Every
// reply is a 200, a typed 500 or — once a session has faulted — a 404;
// every fault is counted; no slot, lock or watcher leaks.
func TestSessionFaultsUnderStress(t *testing.T) {
	var calls, faults atomic.Int64
	setFaultHook(t, func(s string, _ *Job) {
		if strings.HasPrefix(s, "session-") && calls.Add(1)%7 == 0 {
			faults.Add(1)
			panic("injected fault")
		}
	})
	srv := NewServer(Config{WatchTimeout: 40 * time.Millisecond})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const writers, watchers, iterations = 6, 3, 20
	var mu sync.Mutex // guards ids
	ids := make([]string, 3)
	fresh := func() (string, bool) {
		status, created := doJSON(t, ts, "POST", "/v1/sessions", newSessionSpec(""))
		if status != 201 {
			return "", false
		}
		return created["id"].(string), true
	}
	for i := range ids {
		id, ok := fresh()
		if !ok {
			t.Fatal("create session")
		}
		ids[i] = id
	}
	var wg sync.WaitGroup
	for g := 0; g < writers+watchers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iterations; i++ {
				mu.Lock()
				id := ids[(g+i)%len(ids)]
				mu.Unlock()
				if g >= writers {
					if status, _ := doJSON(t, ts, "GET", "/v1/sessions/"+id+"/watch?version=9999", ""); status != 200 && status != 404 {
						t.Errorf("watch status %d", status)
					}
					continue
				}
				payload := fmt.Sprintf(`{"deltas":[{"kind":"load","task":%d,"load":%d}]}`, (g+i)%8, i)
				status, body := doJSON(t, ts, "POST", "/v1/sessions/"+id+"/deltas", payload)
				switch status {
				case 200, 429:
				case 500:
					if msg, _ := body["error"].(string); !strings.HasPrefix(msg, "session: internal error in ") {
						t.Errorf("500 body %v", body)
					}
					fallthrough
				case 404: // faulted, here or in another writer: replace it
					if next, ok := fresh(); ok {
						mu.Lock()
						ids[(g+i)%len(ids)] = next
						mu.Unlock()
					}
				default:
					t.Errorf("deltas status %d: %v", status, body)
				}
			}
		}(g)
	}
	wg.Wait()
	st := srv.Snapshot()
	if faults.Load() == 0 || st.InternalErrors != faults.Load() {
		t.Errorf("internal_errors = %d, injected %d (want equal, non-zero)", st.InternalErrors, faults.Load())
	}
	if st.QueueDepth != 0 || st.Sessions.WatchersActive != 0 {
		t.Errorf("queue_depth = %d, watchers_active = %d after drain", st.QueueDepth, st.Sessions.WatchersActive)
	}
}
