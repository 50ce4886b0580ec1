package service

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"net/http"
	"sync"
	"time"
)

// Handler returns the service's HTTP mux:
//
//	POST   /v1/map                  one job, synchronous; body = Job JSON
//	POST   /v1/batch                {"jobs":[Job,...]}; per-job results in job order
//	POST   /v1/jobs                 async submit; returns {"id":...}
//	GET    /v1/jobs/{id}            poll; fetching a finished job consumes it
//	POST   /v1/sessions             register a live remapping session; body = SessionSpec
//	GET    /v1/sessions/{id}        session snapshot (version, hop-bytes, mapping)
//	DELETE /v1/sessions/{id}        close a session; watchers get a "closed" event
//	POST   /v1/sessions/{id}/deltas apply a delta batch, maybe push a remap
//	GET    /v1/sessions/{id}/watch  long-poll for the next pushed mapping
//	GET    /stats                   counters (service, sessions, caches, engine pool)
//	GET    /healthz                 liveness
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/map", s.handleMap)
	mux.HandleFunc("POST /v1/batch", s.handleBatch)
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleFetch)
	mux.HandleFunc("POST /v1/sessions", s.handleSessionCreate)
	mux.HandleFunc("GET /v1/sessions/{id}", s.handleSessionGet)
	mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleSessionDelete)
	mux.HandleFunc("POST /v1/sessions/{id}/deltas", s.handleSessionDeltas)
	mux.HandleFunc("GET /v1/sessions/{id}/watch", s.handleSessionWatch)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		s.writeBody(w, []byte(`{"ok":true}`))
	})
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Replace a deadline left on a kept-alive connection by its last
		// request, for the responses the mux writes itself (404, 405).
		armWrite(w)
		mux.ServeHTTP(w, r)
	})
}

// writeDeadline bounds the writing of one response. A client that stops
// reading gets its connection closed after this long, instead of holding
// the connection and its handler goroutine for good. The deadline is
// armed as a response is written, not when its request arrives, so a wait
// for a result does not count against it and a watch long-poll is not
// cut. (A server-wide WriteTimeout would cut both.) Tests shorten it.
var writeDeadline = 30 * time.Second

// armWrite sets w's connection write deadline to writeDeadline from now.
func armWrite(w http.ResponseWriter) {
	//lint:ignore seededrand the wall clock bounds only how long a write may block; no response byte depends on it
	deadline := time.Now().Add(writeDeadline)
	//lint:ignore errcheck only a writer without a connection (httptest.ResponseRecorder) refuses a deadline, and it has nothing to bound
	_ = http.NewResponseController(w).SetWriteDeadline(deadline)
}

// writeJSON encodes v to w. A failed write means the client went away
// mid-response; there is no recovery, so failures are only counted.
func (s *Server) writeJSON(w http.ResponseWriter, v any) {
	armWrite(w)
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		s.stats.writeFailures.Add(1)
	}
}

// errorBody is the JSON error envelope. Deterministic: no timestamps or
// request ids, so identical failures produce identical bodies.
type errorBody struct {
	Error  string `json:"error"`
	Status int    `json:"status"`
}

// countError counts one failed job or request in client_errors when its
// status is a 4xx. Every endpoint reports a failure exactly once — as an
// HTTP error, a batch entry or an async outcome — and counts it there.
func (s *Server) countError(status int) {
	if status >= 400 && status < 500 {
		s.stats.clientErrors.Add(1)
	}
}

func (s *Server) writeError(w http.ResponseWriter, status int, err error) {
	s.countError(status)
	if status == 429 {
		// Admission rejections are transient: the queue drains as fast as
		// the workers map, so a short client backoff is enough.
		w.Header().Set("Retry-After", "1")
	}
	armWrite(w)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if encErr := json.NewEncoder(w).Encode(errorBody{Error: err.Error(), Status: status}); encErr != nil {
		s.stats.writeFailures.Add(1)
	}
}

func (s *Server) writeBody(w http.ResponseWriter, body []byte) {
	armWrite(w)
	w.Header().Set("Content-Type", "application/json")
	if _, err := w.Write(body); err != nil {
		s.stats.writeFailures.Add(1)
	}
}

// handleMap serves POST /v1/map. A body whose digest the result cache
// has indexed is answered from it before it is decoded or named; any
// other body goes decode → name → do, and a 200 indexes its digest (see
// resultCache for why the two paths answer alike).
func (s *Server) handleMap(w http.ResponseWriter, r *http.Request) {
	s.stats.syncRequests.Add(1)
	buf := s.readBody(w, r)
	if buf == nil {
		return
	}
	d := sha256.Sum256(buf.Bytes())
	if body, key := s.cache.getSpelled(d); body != nil {
		bodyBuffers.Put(buf)
		w.Header().Set("X-Topomapd-Key", key)
		s.writeBody(w, body)
		return
	}
	var spec Job
	err := decodeStrict(buf.Bytes(), &spec)
	bodyBuffers.Put(buf)
	if err != nil {
		s.writeError(w, errStatus(err), err)
		return
	}
	j, err := s.name(spec)
	if err != nil {
		s.writeError(w, errStatus(err), err)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	body, status, err := s.do(ctx, j)
	if err != nil {
		s.writeError(w, status, err)
		return
	}
	s.cache.spell(d, j.key)
	w.Header().Set("X-Topomapd-Key", j.key)
	s.writeBody(w, body)
}

// batchRequest / batchEntry are the wire forms of POST /v1/batch. Every
// job gets an entry at its own index: either its result body (the same
// bytes a sync request returns) or its error.
type batchRequest struct {
	Jobs []Job `json:"jobs"`
}

type batchEntry struct {
	Status int             `json:"status"`
	Result json.RawMessage `json:"result,omitempty"`
	Error  string          `json:"error,omitempty"`
}

type batchResponse struct {
	Results []batchEntry `json:"results"`
}

// handleBatch serves POST /v1/batch: jobs fan out across the workers
// concurrently and the response lists per-job outcomes in request order
// (the experiments.RunSims contract — results indexed by job, never by
// completion time).
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	s.stats.batchRequests.Add(1)
	var req batchRequest
	if !s.decode(w, r, &req) {
		return
	}
	if len(req.Jobs) == 0 {
		s.writeError(w, 400, badJob(400, "batch: no jobs"))
		return
	}
	if len(req.Jobs) > s.cfg.MaxBatch {
		s.writeError(w, 413, badJob(413, "batch: %d jobs, limit is %d", len(req.Jobs), s.cfg.MaxBatch))
		return
	}
	s.stats.batchJobs.Add(int64(len(req.Jobs)))

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	entries := make([]batchEntry, len(req.Jobs))
	var wg sync.WaitGroup
	for i := range req.Jobs {
		j, err := s.name(req.Jobs[i])
		if err != nil {
			entries[i] = batchEntry{Status: errStatus(err), Error: err.Error()}
			continue
		}
		wg.Add(1)
		go func(i int, j *job) {
			defer wg.Done()
			body, status, err := s.do(ctx, j)
			if err != nil {
				entries[i] = batchEntry{Status: status, Error: err.Error()}
				return
			}
			entries[i] = batchEntry{Status: 200, Result: body}
		}(i, j)
	}
	wg.Wait()
	for i := range entries {
		s.countError(entries[i].Status)
	}
	s.writeJSON(w, batchResponse{Results: entries})
}

// submitResponse is the wire form of POST /v1/jobs.
type submitResponse struct {
	ID string `json:"id"`
}

// handleSubmit serves POST /v1/jobs: name the job, assign an id, and
// resolve it in the background under the server's lifetime (not the
// request's). A defect in the request text is this request's 4xx; one
// that only building the operands finds is the job's outcome, reported by
// GET /v1/jobs/{id} with the status a sync request would have returned.
//
//lint:ignore jsoncontract async jobs outlive the request by design: work runs under the server lifetime context, and /v1/jobs/{id} serves the result later
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec Job
	if !s.decode(w, r, &spec) {
		return
	}
	j, err := s.name(spec)
	if err != nil {
		s.writeError(w, errStatus(err), err)
		return
	}
	aj, err := s.async.add(j.key)
	if err != nil {
		s.writeError(w, errStatus(err), err)
		return
	}
	s.stats.asyncSubmitted.Add(1)
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		ctx, cancel := context.WithTimeout(s.baseCtx, s.cfg.RequestTimeout)
		defer cancel()
		body, status, err := s.do(ctx, j)
		s.countError(status)
		s.async.complete(aj, body, status, err)
	}()
	armWrite(w)
	w.Header().Set("X-Topomapd-Key", j.key)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	if err := json.NewEncoder(w).Encode(submitResponse{ID: aj.id}); err != nil {
		s.stats.writeFailures.Add(1)
	}
}

// Async job states as reported by GET /v1/jobs/{id}.
const (
	statusPending = "pending"
	statusDone    = "done"
	statusError   = "error"
)

// fetchResponse is the wire form of GET /v1/jobs/{id}. Result carries the
// job's body verbatim when Status is "done"; Error and Code carry the
// message and HTTP status POST /v1/map would have answered when it is
// "error".
type fetchResponse struct {
	ID     string          `json:"id"`
	Status string          `json:"status"` // "pending" | "done" | "error"
	Result json.RawMessage `json:"result,omitempty"`
	Error  string          `json:"error,omitempty"`
	Code   int             `json:"code,omitempty"`
}

// handleFetch serves GET /v1/jobs/{id}. Fetching a finished job removes
// it from the store (fetch-once), which is what keeps async memory
// bounded by unfetched work.
func (s *Server) handleFetch(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	aj, ok := s.async.fetch(id)
	if !ok {
		s.writeError(w, 404, badJob(404, "job %q not found (finished jobs are consumed by the first fetch)", id))
		return
	}
	resp := fetchResponse{ID: aj.id, Status: statusPending}
	if aj.done {
		if aj.err != nil {
			resp.Status = statusError
			resp.Error = aj.err.Error()
			resp.Code = aj.status
		} else {
			resp.Status = statusDone
			resp.Result = aj.body
		}
	}
	s.writeJSON(w, resp)
}

// handleStats serves GET /stats.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, s.Snapshot())
}
