package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/service"
	"repro/internal/taskgraph"
	"repro/internal/topology"
)

// server is a default-configured service.Server behind a real loopback
// listener, with one keep-alive HTTP client shared by the closed loop's
// clients (one connection each, never more).
type server struct {
	srv    *service.Server
	http   *http.Server
	served chan struct{}
	url    string
	client *http.Client
	bufs   []bytes.Buffer // one response buffer per client
}

func startServer(clients int) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{
		srv:    service.NewServer(service.Config{}),
		served: make(chan struct{}),
		url:    "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients, MaxConnsPerHost: clients}},
		bufs:   make([]bytes.Buffer, clients),
	}
	s.http = &http.Server{Handler: s.srv.Handler()}
	go func() {
		defer close(s.served)
		// Serve returns http.ErrServerClosed once stop closes the listener.
		_ = s.http.Serve(ln)
	}()
	return s, nil
}

func (s *server) stop() {
	s.client.CloseIdleConnections()
	_ = s.http.Close() //lint:ignore errcheck closing the loopback listener at teardown cannot usefully fail
	<-s.served
	s.srv.Close()
}

// post sends payload as client c and returns the status, the body (valid
// until c's next post) and the latency from send to last body byte.
func (s *server) post(c int, path string, payload []byte) (int, []byte, time.Duration, error) {
	req, err := http.NewRequest(http.MethodPost, s.url+path, bytes.NewReader(payload))
	if err != nil {
		return 0, nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	buf := &s.bufs[c]
	buf.Reset()
	t0 := time.Now()
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, time.Since(t0), err
	}
	defer resp.Body.Close()
	_, err = buf.ReadFrom(resp.Body)
	return resp.StatusCode, buf.Bytes(), time.Since(t0), err
}

// fanOut runs do(c, k) for k in [0,n) from the given number of clients.
func fanOut(clients, n int, do func(c, k int)) {
	var wg sync.WaitGroup
	var mu sync.Mutex
	next := 0
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				mu.Lock()
				k := next
				next++
				mu.Unlock()
				if k >= n {
					return
				}
				do(c, k)
			}
		}(c)
	}
	wg.Wait()
}

// request is one element of a workload's request sequence.
type request struct {
	class   int
	payload []byte
}

// sequence is a request sequence made of whole blocks. Every block holds
// the same multiset of classes (comp); the seed shuffles each block's
// order and numbers the requests, so two seeds offer the same mix in a
// different order and a phase that completes whole blocks has the same
// composition whichever seed drew it.
type sequence struct {
	mu   sync.Mutex
	rng  *rand.Rand
	comp []int
	gen  func(class int, ordinal int64) []byte
	reqs []request
}

func newSequence(seed int64, comp []int, blocks int, gen func(class int, ordinal int64) []byte) *sequence {
	s := &sequence{rng: rand.New(rand.NewSource(seed)), comp: comp, gen: gen}
	for b := 0; b < blocks; b++ {
		s.extend()
	}
	return s
}

func (s *sequence) extend() {
	for _, slot := range s.rng.Perm(len(s.comp)) {
		class := s.comp[slot]
		s.reqs = append(s.reqs, request{class: class, payload: s.gen(class, int64(len(s.reqs)))})
	}
}

// at returns request i, generating further blocks when a run outlasts
// what set-up prepared.
func (s *sequence) at(i int64) request {
	s.mu.Lock()
	defer s.mu.Unlock()
	for int64(len(s.reqs)) <= i {
		s.extend()
	}
	return s.reqs[i]
}

// operands caches the harness's own copy of each job's graph and
// topology, by spec, for verifying responses.
type operands struct {
	mu     sync.Mutex
	bySpec map[string]*inputs
}

func (o *operands) of(job service.Job) (*inputs, error) {
	key := fmt.Sprintf("%s|%s|%g|%d|%x", job.Topology, job.Graph.Pattern, job.Graph.MsgBytes, job.Graph.Seed, len(job.Graph.Inline))
	o.mu.Lock()
	defer o.mu.Unlock()
	if in, ok := o.bySpec[key]; ok {
		return in, nil
	}
	in, err := materialize(nil, job)
	if err != nil {
		return nil, err
	}
	if o.bySpec == nil {
		o.bySpec = map[string]*inputs{}
	}
	o.bySpec[key] = in
	return in, nil
}

// inlineGraph is the pinned graph of the inline-graph job classes, in the
// taskgraph JSON wire form.
func inlineGraph(n int) json.RawMessage {
	var buf bytes.Buffer
	if err := taskgraph.RandomGeometricDeg(n, 6, 1e5, 7).WriteJSON(&buf); err != nil {
		panic(err) // writing to a bytes.Buffer cannot fail
	}
	return buf.Bytes()
}

func mustJSON(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err) // job specs are plain structs
	}
	return data
}

// svcCounters are the service's public counters, as deltas since from.
func svcCounters(srv *service.Server, from service.Stats) map[string]float64 {
	now := srv.Snapshot()
	hits := now.ResultCache.Hits - from.ResultCache.Hits
	misses := now.ResultCache.Misses - from.ResultCache.Misses
	v := map[string]float64{
		"service.evictions":       float64(now.ResultCache.Evictions - from.ResultCache.Evictions),
		"service.jobs_computed":   float64(now.JobsComputed - from.JobsComputed),
		"service.coalesced_joins": float64(now.CoalescedJoins - from.CoalescedJoins),
		"service.rejected_429":    float64(now.RejectedFull - from.RejectedFull),
		"service.client_errors":   float64(now.ClientErrors - from.ClientErrors),
	}
	if hits+misses > 0 {
		v["service.hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	return v
}

// mapService is what svc-cold and svc-warm share: the server, the request
// sequence, the harness's operands, and the C=1 sample-and-replay pass of
// the traced run.
type mapService struct {
	cfg   config
	srv   *server
	seq   *sequence
	ops   operands
	snap0 service.Stats           // counters once set-up is done
	dist0 topology.DistCacheStats // cache counters when set-up began
	hops  []float64               // hops per byte of each pinned reference job
}

func (m *mapService) shape() (int, int) { return m.cfg.clients, len(m.seq.comp) }
func (m *mapService) layerRoot() string { return "replay" }
func (m *mapService) opSpan() string    { return "service.request" }

func (m *mapService) quality() (float64, float64) { return geomean(m.hops), 1 }

func (m *mapService) close() {
	if m.srv != nil {
		m.srv.stop()
		m.srv = nil
	}
}

// buildTables builds the distance table of every distinct machine before
// the server starts, so the cost is spanned in the traced run and paid at
// the same point in both runs.
func (m *mapService) buildTables(sc *spanCtx, jobs []service.Job) error {
	m.dist0 = metrics.Counters().DistMatrixCache
	seen := map[string]bool{}
	for _, job := range jobs {
		if seen[job.Topology] {
			continue
		}
		seen[job.Topology] = true
		in, err := m.ops.of(job)
		if err != nil {
			return err
		}
		_, end := sc.span("topology.distmatrix_build")
		topology.CachedDistances(in.topo)
		end()
	}
	return nil
}

// sampleAndReplay is the traced run's layer breakdown for a map service:
// for budget, take the next request of a fresh sequence, send it alone
// (C = 1), then replay the same job through the library chain with a span
// per layer. full replays the whole chain and demands the chain's bytes
// equal the service's; otherwise (cache hits) the chain stops where the
// service stops — at the operands it materialises before it can look the
// job up.
func (m *mapService) sampleAndReplay(sc *spanCtx, budget time.Duration, tl *tally, seq *sequence, full bool,
	check func(req request, body []byte) error) (map[string]float64, error) {
	var latMS, overheadMS, bodyKB []float64
	deadline := time.Now().Add(budget)
	for i := int64(0); time.Now().Before(deadline); i++ {
		req := seq.at(i)
		root, endRoot := (&spanCtx{rec: sc.rec, parent: -1, op: i}).span("replay")
		_, end := root.span("service.request")
		status, body, lat, err := m.srv.post(0, "/v1/map", req.payload)
		end()
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d: %s", status, body)
		}
		if err == nil {
			err = check(req, body)
		}
		t0 := time.Now()
		if err == nil {
			_, err = replayChain(root, req.payload, body, full)
		}
		chain := time.Since(t0)
		endRoot()
		tl.check(err)
		latMS = append(latMS, float64(lat)/1e6)
		overheadMS = append(overheadMS, float64(lat-chain)/1e6)
		bodyKB = append(bodyKB, float64(len(body))/1024)
	}
	v := svcCounters(m.srv.srv, m.snap0)
	v["service.overhead_ms"] = mean(overheadMS)
	v["service.c1_p50_ms"] = median(latMS)
	v["json.body_kb"] = mean(bodyKB)
	v["topology.distcache_hit_ratio"] = distHitRatio(m.dist0)
	return v, nil
}

// replayChain runs one request through the public library chain; a full
// replay returns what the chain computed.
func replayChain(sc *spanCtx, payload, body []byte, full bool) (*outcome, error) {
	job, err := decodeJob(sc, payload)
	if err != nil {
		return nil, err
	}
	in, err := materialize(sc, job)
	if err != nil || !full {
		return nil, err
	}
	out, err := compute(sc, in)
	if err != nil {
		return nil, err
	}
	enc, err := encodeOutcome(sc, in, out)
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(enc, body) {
		return nil, fmt.Errorf("library chain and service disagree on %s %s: %d vs %d bytes", job.Strategy, job.Graph.Pattern, len(enc), len(body))
	}
	return out, nil
}
