// Package service is topomapd's engine: a long-running mapping service
// that turns the library's one-shot strategy calls into a high-throughput
// request path. The expensive parts of a mapping request — all-pairs
// distance tables, netsim engine arenas — are process-wide state worth
// amortizing, so the service layers four reuse mechanisms over the same
// deterministic kernels:
//
//   - a bounded LRU cache of marshaled response bodies keyed by a content
//     hash of (graph, topology, strategy, seed, options); repeated jobs
//     are served without recomputing or re-marshaling anything
//   - singleflight coalescing: identical jobs in flight at the same time
//     share one computation
//   - the shared topology.DistanceMatrix cache and pooled netsim engines
//     (reused via Engine.Reset), both carrying hit/reuse counters
//   - pooled request/response buffers on the HTTP path
//
// Admission control bounds memory: at most QueueDepth distinct
// computations may be queued or running; beyond that, requests are
// rejected with 429 and a Retry-After header instead of growing queues
// without limit. Admitted computations wait in one FIFO queue drained by
// every worker. A computation's slot is released by the worker that pops
// it from the queue — even when every waiter cancelled first — so queue
// occupancy never exceeds the slot count and an admitted enqueue never
// blocks.
//
// Determinism contract: a response body is exactly
// json.Marshal(result-of-direct-library-calls) for the normalized job —
// independent of GOMAXPROCS, concurrency, worker count, and whether the
// body came from the cache, a coalesced flight, or a fresh computation.
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// Config sizes the server. The zero value gets the defaults of
// DefaultConfig from NewServer, field by field.
type Config struct {
	// Workers is how many jobs compute at once: the goroutines draining
	// the queue. Default GOMAXPROCS, one per core (compute is CPU-bound).
	Workers int
	// QueueDepth bounds distinct computations admitted (queued+running);
	// beyond it requests get 429. Default 256.
	QueueDepth int
	// MaxTasks bounds the task count of one job. Default 16384.
	MaxTasks int
	// MaxBatch bounds jobs per batch request. Default 256.
	MaxBatch int
	// MaxBody bounds request body bytes. Default 8 MiB.
	MaxBody int64
	// MaxAsync bounds outstanding async jobs (pending + unfetched).
	// Default 1024.
	MaxAsync int
	// CacheEntries / CacheBytes bound the result cache. Defaults 1024
	// entries / 64 MiB. CacheEntries < 0 disables the cache.
	CacheEntries int
	CacheBytes   int64
	// RequestTimeout bounds one sync or batch request's wait; async jobs
	// use it per job. Default 60s.
	RequestTimeout time.Duration
	// MaxSessions bounds live remapping sessions; creating one beyond it
	// evicts the least-recently-used session. Default 64.
	MaxSessions int
	// WatchTimeout bounds one session watch long-poll; on expiry the
	// watcher gets a "timeout" event and should poll again. Default 30s.
	WatchTimeout time.Duration
	// MaxSessionEdges bounds one session's communication edges. Default
	// 1<<20.
	MaxSessionEdges int

	// noWorkers leaves the queue undrained. Only settable from
	// this package: tests use it to pin queue-full and cancellation
	// behavior without racing the workers.
	noWorkers bool
}

// DefaultConfig is the configuration NewServer(Config{}) runs with: every
// default is written here once, and topomapd's flags take theirs from it.
func DefaultConfig() Config {
	var c Config
	return c.withDefaults()
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.Workers <= 0 {
		out.Workers = runtime.GOMAXPROCS(0)
	}
	if out.QueueDepth <= 0 {
		out.QueueDepth = 256
	}
	if out.MaxTasks == 0 {
		out.MaxTasks = 16384
	}
	if out.MaxBatch <= 0 {
		out.MaxBatch = 256
	}
	if out.MaxBody <= 0 {
		out.MaxBody = 8 << 20
	}
	if out.MaxAsync <= 0 {
		out.MaxAsync = 1024
	}
	if out.CacheEntries == 0 {
		out.CacheEntries = 1024
	}
	if out.CacheBytes <= 0 {
		out.CacheBytes = 64 << 20
	}
	if out.RequestTimeout <= 0 {
		out.RequestTimeout = 60 * time.Second
	}
	if out.MaxSessions <= 0 {
		out.MaxSessions = 64
	}
	if out.WatchTimeout <= 0 {
		out.WatchTimeout = 30 * time.Second
	}
	if out.MaxSessionEdges <= 0 {
		out.MaxSessionEdges = 1 << 20
	}
	return out
}

// Server is the mapping service. Create with NewServer, expose via
// Handler, stop with Close.
type Server struct {
	cfg   Config
	cache *resultCache
	table *flightTable
	queue chan *flight  // admitted flights, FIFO, drained by every worker
	admit chan struct{} // admission semaphore: queued+running computations

	baseCtx context.Context
	cancel  context.CancelFunc
	wg      sync.WaitGroup

	async    asyncStore
	sessions sessionStore

	stats serverStats
}

// serverStats are monotonically increasing request-path counters.
type serverStats struct {
	syncRequests   atomic.Int64
	batchRequests  atomic.Int64
	batchJobs      atomic.Int64
	asyncSubmitted atomic.Int64
	jobsComputed   atomic.Int64
	rejectedFull   atomic.Int64
	cancelled      atomic.Int64
	clientErrors   atomic.Int64
	internalErrors atomic.Int64 // panics contained in name, build, compute or a session batch
	writeFailures  atomic.Int64
	jobsRunning    atomic.Int64 // gauge: claimed, not yet finished

	// Auto portfolio counters (see auto.go); auto has one entry per
	// portfolio index, allocated by NewServer, in /stats order.
	autoComputed       atomic.Int64
	autoMaxPortfolioNs atomic.Int64
	auto               []autoCounters

	// Session counters (see session.go).
	sessionsCreated  atomic.Int64
	sessionsClosed   atomic.Int64
	sessionsEvicted  atomic.Int64
	sessionDeltas    atomic.Int64
	remapsPushed     atomic.Int64
	remapsSuppressed atomic.Int64
	watchRequests    atomic.Int64
	watchTimeouts    atomic.Int64
	watchersActive   atomic.Int64 // gauge: watch long-polls parked right now
}

// autoCounters are one portfolio candidate's /stats counters.
type autoCounters struct {
	runs, wins, skips, ns atomic.Int64
}

// NewServer builds a running server (workers started) with cfg defaults
// applied.
func NewServer(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:   cfg,
		cache: newResultCache(cfg.CacheEntries, cfg.CacheBytes),
		table: newFlightTable(),
		// The queue's capacity equals the semaphore's, so an admitted
		// flight always enqueues without blocking.
		queue: make(chan *flight, cfg.QueueDepth),
		admit: make(chan struct{}, cfg.QueueDepth),
	}
	s.stats.auto = make([]autoCounters, len(portfolio))
	s.baseCtx, s.cancel = context.WithCancel(context.Background())
	s.async.init(cfg.MaxAsync)
	s.sessions.init(cfg.MaxSessions)
	if !cfg.noWorkers {
		for w := 0; w < cfg.Workers; w++ {
			s.wg.Add(1)
			go s.worker()
		}
	}
	return s
}

// Close stops the workers and fails new requests with 503. In-progress
// computations finish first.
func (s *Server) Close() {
	s.cancel()
	s.wg.Wait()
}

func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.baseCtx.Done():
			return
		case f := <-s.queue:
			if !s.table.claim(f) {
				// Aborted while queued: the entry kept its admission slot so
				// that queue occupancy never exceeds the slot count (an
				// admitted enqueue can never block). Release it now that the
				// entry left the queue.
				<-s.admit
				continue
			}
			s.stats.jobsRunning.Add(1)
			s.run(f)
			s.stats.jobsRunning.Add(-1)
			<-s.admit
		}
	}
}

// run computes one claimed flight and publishes its result. A panic in
// compute finishes the flight with a typed 500 like any other failure, so
// its waiters are released and the worker keeps serving.
func (s *Server) run(f *flight) {
	f.job.stats = &s.stats
	res, err := s.compute(f.job)
	if err != nil {
		s.table.finish(f, nil, errStatus(err), err)
		return
	}
	body, err := encodeResult(res)
	if err != nil {
		s.table.finish(f, nil, 500, fmt.Errorf("encode result: %w", err))
		return
	}
	s.stats.jobsComputed.Add(1)
	s.cache.put(f.key, body)
	s.table.finish(f, body, 200, nil)
}

// contain, deferred around one stage of a job, turns a panic inside it
// into a typed 500 in *err, counted in internal_errors. Every stage that
// can run while other requests wait on the job's flight is contained: a
// stranded flight would block its waiters until their timeouts.
func (s *Server) contain(stage string, err *error) {
	if r := recover(); r != nil {
		s.stats.internalErrors.Add(1)
		*err = badJob(500, "job: internal error in %s: %v", stage, r)
	}
}

// name, build and compute are the job stages under the server's task
// limit and fault containment. (name is contained too: an auto job with
// no explicit budget builds inside it.)
func (s *Server) name(spec Job) (j *job, err error) {
	defer s.contain("name", &err)
	return name(spec, s.cfg.MaxTasks)
}

func (s *Server) build(j *job) (err error) {
	defer s.contain("build", &err)
	return j.build()
}

func (s *Server) compute(j *job) (res *JobResult, err error) {
	defer s.contain("compute", &err)
	return j.compute()
}

// errQueueFull is the admission-control rejection; handlers translate it
// to 429 with Retry-After.
var errQueueFull = badJob(429, "job: queue full, retry later")

// do resolves one named job to its response body: result cache, then
// coalescing onto an in-flight computation, then — for the request that
// created the flight — build, admission and enqueue. Only that request
// builds operands: a cache hit and a coalesced join cost nothing beyond
// the name pass, and a job that fails to build is published to its
// joiners through the flight without ever taking a queue slot. Blocks
// until the body is ready or ctx is done.
func (s *Server) do(ctx context.Context, j *job) ([]byte, int, error) {
	if body := s.cache.get(j.key); body != nil {
		return body, 200, nil
	}
	f, created := s.table.join(j)
	if created {
		if err := s.build(j); err != nil {
			status := errStatus(err)
			s.table.abandon(f, status, err)
			return nil, status, err
		}
		select {
		case s.admit <- struct{}{}:
			s.queue <- f
		default:
			s.stats.rejectedFull.Add(1)
			s.table.abandon(f, 429, errQueueFull)
			return nil, 429, errQueueFull
		}
	}
	select {
	case <-f.done:
		return f.body, f.status, f.err
	case <-ctx.Done():
		s.table.leave(f)
		s.stats.cancelled.Add(1)
		return nil, 499, ctx.Err()
	case <-s.baseCtx.Done():
		s.table.leave(f)
		return nil, 503, badJob(503, "server shutting down")
	}
}

// errStatus extracts the HTTP status from a jobError (500 otherwise).
func errStatus(err error) int {
	var je *jobError
	if errors.As(err, &je) {
		return je.status
	}
	return 500
}

// asyncStore tracks submitted async jobs by id. Bounded: submissions
// beyond maxJobs outstanding are rejected until results are fetched.
type asyncStore struct {
	mu      sync.Mutex
	jobs    map[string]*asyncJob
	maxJobs int
	seq     int64
}

type asyncJob struct {
	id     string
	key    string
	done   bool
	body   []byte
	status int
	err    error
}

func (a *asyncStore) init(maxJobs int) {
	a.jobs = make(map[string]*asyncJob)
	a.maxJobs = maxJobs
}

// add registers a new pending job, or fails when the store is full.
func (a *asyncStore) add(key string) (*asyncJob, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.jobs) >= a.maxJobs {
		return nil, badJob(429, "job: async store full, fetch completed jobs first")
	}
	a.seq++
	j := &asyncJob{id: "j" + strconv.FormatInt(a.seq, 10), key: key}
	a.jobs[j.id] = j
	return j, nil
}

// complete publishes a finished job's outcome.
func (a *asyncStore) complete(j *asyncJob, body []byte, status int, err error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	j.body, j.status, j.err = body, status, err
	j.done = true
}

// fetch returns a snapshot of the job's state (a copy, since complete may
// write the live entry concurrently). Fetching a finished job consumes
// it: the entry is removed so the store stays bounded by unfetched work.
func (a *asyncStore) fetch(id string) (asyncJob, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	j, ok := a.jobs[id]
	if !ok {
		return asyncJob{}, false
	}
	if j.done {
		delete(a.jobs, id)
	}
	return *j, true
}

func (a *asyncStore) outstanding() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.jobs)
}

// Stats is the /stats document.
type Stats struct {
	SyncRequests   int64 `json:"sync_requests"`
	BatchRequests  int64 `json:"batch_requests"`
	BatchJobs      int64 `json:"batch_jobs"`
	AsyncSubmitted int64 `json:"async_submitted"`
	AsyncPending   int   `json:"async_pending"`
	JobsComputed   int64 `json:"jobs_computed"`
	JobsRunning    int64 `json:"jobs_running"`
	CoalescedJoins int64 `json:"coalesced_joins"`
	RejectedFull   int64 `json:"rejected_queue_full"`
	Cancelled      int64 `json:"cancelled"`
	ClientErrors   int64 `json:"client_errors"`
	InternalErrors int64 `json:"internal_errors"`
	WriteFailures  int64 `json:"write_failures"`

	ResultCache CacheStats `json:"result_cache"`

	// Auto reports the portfolio counters: how many auto jobs computed,
	// the slowest portfolio wall-clock seen, and per-candidate totals in
	// fixed portfolio order. Cache hits and coalesced joins do not
	// recompute, so they do not move these counters.
	Auto struct {
		JobsComputed   int64            `json:"jobs_computed"`
		MaxPortfolioNs int64            `json:"max_portfolio_ns"`
		Strategies     []AutoStratStats `json:"strategies"`
	} `json:"auto"`

	Sessions struct {
		Active           int   `json:"active"`
		Created          int64 `json:"created"`
		Closed           int64 `json:"closed"`
		Evicted          int64 `json:"evicted"`
		DeltasApplied    int64 `json:"deltas_applied"`
		RemapsPushed     int64 `json:"remaps_pushed"`
		RemapsSuppressed int64 `json:"remaps_suppressed"`
		WatchRequests    int64 `json:"watch_requests"`
		WatchTimeouts    int64 `json:"watch_timeouts"`
		WatchersActive   int64 `json:"watchers_active"`
	} `json:"sessions"`

	QueueDepth int `json:"queue_depth"` // admitted computations right now
	QueueCap   int `json:"queue_cap"`
	Workers    int `json:"workers"`

	System metrics.SystemCounters `json:"system"`
}

// CacheStats is the result cache's /stats entry. Hits include the
// spelled hits: /v1/map requests answered from their body's digest,
// before decoding (see resultCache). Spellings is how many digests are
// indexed, at most one per entry.
type CacheStats struct {
	Hits        int64 `json:"hits"`
	Misses      int64 `json:"misses"`
	Evictions   int64 `json:"evictions"`
	Entries     int   `json:"entries"`
	Bytes       int64 `json:"bytes"`
	SpelledHits int64 `json:"spelled_hits"`
	Spellings   int   `json:"spellings"`
}

// AutoStratStats is one portfolio candidate's /stats entry.
type AutoStratStats struct {
	Strategy    string `json:"strategy"`
	Runs        int64  `json:"runs"`
	Wins        int64  `json:"wins"`
	BudgetSkips int64  `json:"budget_skips"`
	TotalNs     int64  `json:"total_ns"`
}

// Snapshot collects every counter the service exposes.
func (s *Server) Snapshot() Stats {
	var st Stats
	st.SyncRequests = s.stats.syncRequests.Load()
	st.BatchRequests = s.stats.batchRequests.Load()
	st.BatchJobs = s.stats.batchJobs.Load()
	st.AsyncSubmitted = s.stats.asyncSubmitted.Load()
	st.AsyncPending = s.async.outstanding()
	st.JobsComputed = s.stats.jobsComputed.Load()
	st.JobsRunning = s.stats.jobsRunning.Load()
	st.CoalescedJoins = s.table.joinCount()
	st.RejectedFull = s.stats.rejectedFull.Load()
	st.Cancelled = s.stats.cancelled.Load()
	st.ClientErrors = s.stats.clientErrors.Load()
	st.InternalErrors = s.stats.internalErrors.Load()
	st.WriteFailures = s.stats.writeFailures.Load()
	st.ResultCache = s.cache.counters()
	st.Auto.JobsComputed = s.stats.autoComputed.Load()
	st.Auto.MaxPortfolioNs = s.stats.autoMaxPortfolioNs.Load()
	st.Auto.Strategies = make([]AutoStratStats, len(portfolio))
	for i, c := range portfolio {
		st.Auto.Strategies[i] = AutoStratStats{
			Strategy:    c.Name,
			Runs:        s.stats.auto[i].runs.Load(),
			Wins:        s.stats.auto[i].wins.Load(),
			BudgetSkips: s.stats.auto[i].skips.Load(),
			TotalNs:     s.stats.auto[i].ns.Load(),
		}
	}
	st.Sessions.Active = s.sessions.active()
	st.Sessions.Created = s.stats.sessionsCreated.Load()
	st.Sessions.Closed = s.stats.sessionsClosed.Load()
	st.Sessions.Evicted = s.stats.sessionsEvicted.Load()
	st.Sessions.DeltasApplied = s.stats.sessionDeltas.Load()
	st.Sessions.RemapsPushed = s.stats.remapsPushed.Load()
	st.Sessions.RemapsSuppressed = s.stats.remapsSuppressed.Load()
	st.Sessions.WatchRequests = s.stats.watchRequests.Load()
	st.Sessions.WatchTimeouts = s.stats.watchTimeouts.Load()
	st.Sessions.WatchersActive = s.stats.watchersActive.Load()
	st.QueueDepth = len(s.admit)
	st.QueueCap = cap(s.admit)
	st.Workers = s.cfg.Workers
	st.System = metrics.Counters()
	return st
}

// bodyBuffers pools request-body scratch so reading and decoding request
// JSON does not grow a fresh buffer per request.
var bodyBuffers = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// readBody reads at most s.cfg.MaxBody bytes of r's body into a pooled
// buffer, which the caller returns to bodyBuffers once it is done with
// the bytes. On failure it writes the error response (400, or 413 past
// the limit) and returns nil; the handler just returns.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) *bytes.Buffer {
	buf := bodyBuffers.Get().(*bytes.Buffer)
	buf.Reset()
	var err error
	if _, rerr := io.Copy(buf, io.LimitReader(r.Body, s.cfg.MaxBody+1)); rerr != nil {
		err = badJob(400, "read body: %v", rerr)
	} else if int64(buf.Len()) > s.cfg.MaxBody {
		err = badJob(413, "request body exceeds %d bytes", s.cfg.MaxBody)
	}
	if err != nil {
		bodyBuffers.Put(buf)
		s.writeError(w, errStatus(err), err)
		return nil
	}
	return buf
}

// decode reads r's body with readBody and decodes it into v with
// decodeStrict. On any failure it writes the error response and reports
// false; the handler just returns.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	buf := s.readBody(w, r)
	if buf == nil {
		return false
	}
	err := decodeStrict(buf.Bytes(), v)
	bodyBuffers.Put(buf)
	if err != nil {
		s.writeError(w, errStatus(err), err)
		return false
	}
	return true
}

// decodeStrict unmarshals data rejecting unknown fields and trailing
// garbage, so typos in job specs fail loudly instead of silently mapping
// a default job.
func decodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return badJob(400, "decode request: %v", err)
	}
	if dec.More() {
		return badJob(400, "decode request: trailing data after JSON value")
	}
	return nil
}
