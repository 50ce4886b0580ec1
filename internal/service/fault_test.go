package service

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// faultSeed marks the jobs the injected faults hit; every other job is
// healthy.
const faultSeed = 666

func faultyJob() Job {
	return Job{Graph: GraphSpec{Pattern: "mesh2d:4,4"}, Topology: "torus:4,4", Seed: faultSeed}
}

// TestPanicContained injects a panic into build (run by the flight's
// creator while joiners wait on the flight) and into compute (run by the
// shard worker): every request sharing the flight must get the same typed
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
			srv = NewServer(Config{Shards: 1, WorkersPerShard: 1, QueueDepth: 2})
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
