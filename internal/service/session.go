// Live remapping sessions: the online half of the paper's load-balancing
// loop. A one-shot /v1/map job answers "where should these tasks go?"
// once; a session keeps the question open. The client registers an
// instrumented lbdb.Database plus a topology, then streams typed deltas
// (load drift, communication drift, task churn) as the program runs. The
// server maintains a core.IncrementalState — O(deg) hop-bytes updates
// instead of full recomputes — and after each delta batch refines it in
// place under a migration budget. The refined placement is pushed to
// watchers only when its predicted gain, net of the migration cost,
// clears the session's threshold, and is otherwise reverted: the paper's
// §5.1 economics that remapping is worthwhile only when the improvement
// outweighs the cost of moving chare state.
//
// Watchers long-poll GET /v1/sessions/{id}/watch and always get a
// terminal JSON event: "mapping" (a new placement), "timeout" (nothing
// changed; poll again), "closed" (session deleted or evicted), or
// "shutdown" (server stopping). Memory stays bounded: at most
// MaxSessions sessions (least-recently-used is evicted), each capped at
// MaxTasks tasks and MaxSessionEdges communication edges, held once: a
// remap refines the state itself and undoes what it does not push, so no
// spare copy is kept.
package service

import (
	"container/list"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/lbdb"
)

// SessionSpec is the wire form of POST /v1/sessions.
type SessionSpec struct {
	// Topology is a spec like "torus:16,16" (see internal/cliutil).
	Topology string `json:"topology"`
	// DB is the initial instrumented load/communication record; its
	// recorded placement is the session's initial mapping.
	DB *lbdb.Database `json:"db"`
	// Threshold is the minimum relative hop-bytes improvement, net of
	// migration cost, that triggers a push: a refined placement is
	// published only when gain − MigrationCost·migrations >
	// Threshold·current. Default 0.01.
	Threshold float64 `json:"threshold,omitempty"`
	// MigrationBudget caps tasks moved per pushed remap. Null or absent
	// means unlimited; 0 forbids migration (nothing is ever pushed).
	MigrationBudget *int `json:"migration_budget,omitempty"`
	// MigrationCost is the hop-bytes-equivalent charge per migrated task
	// (see core.IncRefineOptions.MigrationCost).
	MigrationCost float64 `json:"migration_cost,omitempty"`
	// LoadTolerance bounds per-processor load growth during refinement.
	// Default 0.10.
	LoadTolerance float64 `json:"load_tolerance,omitempty"`
	// RefinePasses bounds refinement sweeps per delta batch. Default 8.
	RefinePasses int `json:"refine_passes,omitempty"`
}

// session is one live remapping session. The mutex guards the state,
// version, and the changed channel; the closed channel is closed exactly
// once, under the store's lock, on delete/evict/shutdown. The state is
// held once, with no spare: a remap refines it in place under the mutex
// and reverts it before unlocking unless it pushes, so a reader never
// sees a refinement that was not pushed.
type session struct {
	id string

	mu      sync.Mutex
	state   *core.IncrementalState
	opts    core.IncRefineOptions
	thresh  float64
	version int64
	changed chan struct{} // closed and replaced on each version bump

	closeOnce sync.Once
	closed    chan struct{}

	elem *list.Element // protected by the store's lock
}

// bumpLocked publishes a new version. Callers hold sess.mu.
func (ss *session) bumpLocked() {
	ss.version++
	close(ss.changed)
	ss.changed = make(chan struct{})
}

func (ss *session) close() {
	ss.closeOnce.Do(func() { close(ss.closed) })
}

// closedLocked reports whether the session was closed — possibly by a
// fault that left its state half-applied, which must then not be read.
// Callers hold ss.mu.
func (ss *session) closedLocked() bool {
	select {
	case <-ss.closed:
		return true
	default:
		return false
	}
}

// sessionStore holds live sessions with least-recently-used eviction.
// Recency is tracked by list position (front = most recent), not wall
// time — internal/service is wall-clock-free by the determinism lint.
type sessionStore struct {
	mu   sync.Mutex
	byID map[string]*session
	lru  *list.List // of *session
	seq  int64
	max  int
}

func (st *sessionStore) init(max int) {
	st.byID = make(map[string]*session)
	st.lru = list.New()
	st.max = max
}

// add registers a new session, evicting the least-recently-used one when
// the store is full. Returns the evicted session, if any.
func (st *sessionStore) add(ss *session) (evicted *session) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if len(st.byID) >= st.max {
		if back := st.lru.Back(); back != nil {
			evicted = back.Value.(*session)
			st.lru.Remove(back)
			delete(st.byID, evicted.id)
			evicted.close()
		}
	}
	st.seq++
	ss.id = "s" + strconv.FormatInt(st.seq, 10)
	ss.elem = st.lru.PushFront(ss)
	st.byID[ss.id] = ss
	return evicted
}

// get returns the session and marks it most recently used.
func (st *sessionStore) get(id string) (*session, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	ss, ok := st.byID[id]
	if ok {
		st.lru.MoveToFront(ss.elem)
	}
	return ss, ok
}

// remove deletes the session; its watchers get a "closed" event.
func (st *sessionStore) remove(id string) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	ss, ok := st.byID[id]
	if !ok {
		return false
	}
	st.lru.Remove(ss.elem)
	delete(st.byID, id)
	ss.close()
	return true
}

func (st *sessionStore) active() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.byID)
}

// sessionInfo is the wire form of a session snapshot (creation response
// and GET /v1/sessions/{id}).
//
//lint:ignore jsoncontract hop_bytes marshals via Go's shortest-form strconv — deterministic for identical session state per the incremental engine's exactness contract
type sessionInfo struct {
	ID       string  `json:"id"`
	Version  int64   `json:"version"`
	Tasks    int     `json:"tasks"`
	Edges    int     `json:"edges"`
	Procs    int     `json:"procs"`
	HopBytes float64 `json:"hop_bytes"`
	Mapping  []int   `json:"mapping,omitempty"`
}

// infoLocked snapshots the session. Callers hold ss.mu.
func (ss *session) infoLocked(withMapping bool) sessionInfo {
	info := sessionInfo{
		ID:       ss.id,
		Version:  ss.version,
		Tasks:    ss.state.NumTasks(),
		Edges:    ss.state.NumEdges(),
		Procs:    ss.state.Procs(),
		HopBytes: ss.state.HopBytes(),
	}
	if withMapping {
		info.Mapping = ss.state.Mapping()
	}
	return info
}

// handleSessionCreate serves POST /v1/sessions.
func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	var spec SessionSpec
	if !s.decode(w, r, &spec) {
		return
	}
	ss, err := s.newSession(spec)
	if err != nil {
		s.writeError(w, errStatus(err), err)
		return
	}
	if r.Context().Err() != nil {
		s.stats.cancelled.Add(1)
		return
	}
	if evicted := s.sessions.add(ss); evicted != nil {
		s.stats.sessionsEvicted.Add(1)
	}
	s.stats.sessionsCreated.Add(1)
	ss.mu.Lock()
	info := ss.infoLocked(true)
	ss.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusCreated)
	s.writeJSON(w, info)
}

// newSession validates spec and builds the session's incremental state —
// the expensive part (distance matrix, summation tree), so it runs under
// an admission slot like any other computation.
func (s *Server) newSession(spec SessionSpec) (*session, error) {
	if spec.Topology == "" {
		return nil, badJob(400, "session: topology is required")
	}
	if spec.DB == nil {
		return nil, badJob(400, "session: db is required")
	}
	if spec.Threshold < 0 {
		return nil, badJob(400, "session: threshold must be non-negative")
	}
	//lint:ignore floatcmp literal 0 is the JSON unset sentinel for threshold, replaced by the default
	if spec.Threshold == 0 {
		spec.Threshold = 0.01
	}
	if spec.MigrationCost < 0 {
		return nil, badJob(400, "session: migration_cost must be non-negative")
	}
	if len(spec.DB.Chares) > s.cfg.MaxTasks {
		return nil, badJob(413, "session: db has %d chares, limit is %d", len(spec.DB.Chares), s.cfg.MaxTasks)
	}
	if len(spec.DB.Comms) > s.cfg.MaxSessionEdges {
		return nil, badJob(413, "session: db has %d comms, limit is %d", len(spec.DB.Comms), s.cfg.MaxSessionEdges)
	}
	topo, err := cliutil.ParseAnyTopology(spec.Topology)
	if err != nil {
		return nil, badJob(400, "session: %v", err)
	}
	if topo.Nodes() != spec.DB.NumProcs {
		return nil, badJob(422, "session: db recorded %d procs but topology %s has %d nodes", spec.DB.NumProcs, spec.Topology, topo.Nodes())
	}
	budget := -1 // unlimited
	if spec.MigrationBudget != nil {
		if *spec.MigrationBudget < 0 {
			return nil, badJob(400, "session: migration_budget must be non-negative")
		}
		budget = *spec.MigrationBudget
	}
	if err := s.acquireSlot(); err != nil {
		return nil, err
	}
	defer s.releaseSlot()
	// With the machine's size checked above, what Incremental refuses is a
	// defect of the db itself (Database.Validate).
	state, err := spec.DB.Incremental(topo)
	if err != nil {
		return nil, badJob(400, "session: %v", err)
	}
	return &session{
		state: state,
		opts: core.IncRefineOptions{
			MaxPasses:     spec.RefinePasses,
			MaxMigrations: budget,
			MigrationCost: spec.MigrationCost,
			LoadTolerance: spec.LoadTolerance,
		},
		thresh:  spec.Threshold,
		version: 1,
		changed: make(chan struct{}),
		closed:  make(chan struct{}),
	}, nil
}

// acquireSlot claims an admission slot (the same semaphore that bounds
// map computations) or fails with 429.
func (s *Server) acquireSlot() error {
	select {
	case s.admit <- struct{}{}:
		return nil
	default:
		s.stats.rejectedFull.Add(1)
		return errQueueFull
	}
}

func (s *Server) releaseSlot() { <-s.admit }

// deltasRequest is the wire form of POST /v1/sessions/{id}/deltas.
type deltasRequest struct {
	Deltas []lbdb.Delta `json:"deltas"`
	// NoRemap applies the deltas without attempting a remap (refinement
	// runs on the next batch without it).
	NoRemap bool `json:"no_remap,omitempty"`
}

// deltasResponse reports one applied batch.
//
//lint:ignore jsoncontract float fields marshal via Go's shortest-form strconv — deterministic for identical session state per the incremental engine's exactness contract
type deltasResponse struct {
	// Applied counts deltas applied (== len(deltas) on success).
	Applied int `json:"applied"`
	// Version is the session's mapping version after the batch; it grew
	// by one iff Remapped.
	Version int64 `json:"version"`
	// HopBytes is the session's hop-bytes after the batch (and after the
	// remap, when one was pushed).
	HopBytes float64 `json:"hop_bytes"`
	// Remapped reports whether a refined placement was adopted and
	// published to watchers.
	Remapped bool `json:"remapped"`
	// Migrations counts tasks the pushed remap moved (0 if !Remapped).
	Migrations int `json:"migrations,omitempty"`
	// Gain is the hop-bytes improvement of the pushed remap.
	Gain float64 `json:"gain,omitempty"`
}

// handleSessionDeltas serves POST /v1/sessions/{id}/deltas: apply the
// batch to the incremental state (O(deg) per delta), then refine the
// state under the migration budget, keeping the result only when the net
// gain clears the threshold.
func (s *Server) handleSessionDeltas(w http.ResponseWriter, r *http.Request) {
	ss, ok := s.sessions.get(r.PathValue("id"))
	if !ok {
		s.writeError(w, 404, badJob(404, "session %q not found", r.PathValue("id")))
		return
	}
	var req deltasRequest
	if !s.decode(w, r, &req) {
		return
	}
	if len(req.Deltas) == 0 {
		s.writeError(w, 400, badJob(400, "session: no deltas"))
		return
	}
	if r.Context().Err() != nil {
		s.stats.cancelled.Add(1)
		return
	}
	// Refinement is the expensive step; it shares the admission semaphore
	// with map computations so total concurrent work stays bounded.
	if err := s.acquireSlot(); err != nil {
		s.writeError(w, errStatus(err), err)
		return
	}
	defer s.releaseSlot()

	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.closedLocked() {
		// Closed while this request waited for the lock — by a fault in
		// the batch ahead of it, perhaps, which leaves the state unfit.
		s.writeError(w, 404, badJob(404, "session %q not found", ss.id))
		return
	}
	resp := deltasResponse{}
	err := s.applyDeltas(ss, req.Deltas, &resp)
	if err == nil && !req.NoRemap {
		err = s.remap(ss, &resp)
	}
	if err != nil {
		s.writeError(w, errStatus(err), err)
		return
	}
	resp.Version = ss.version
	resp.HopBytes = ss.state.HopBytes()
	s.writeJSON(w, resp)
}

// applyDeltas applies the batch to the session's state in order, stopping
// at the first delta that is invalid or would outgrow the session's
// bounds; resp.Applied counts the ones before it. Callers hold ss.mu.
func (s *Server) applyDeltas(ss *session, deltas []lbdb.Delta, resp *deltasResponse) (err error) {
	defer s.containSession(ss, "apply", &err)
	if faultHook != nil {
		faultHook("session-apply", nil)
	}
	for i, d := range deltas {
		if err := d.Validate(ss.state.NumSlots(), ss.state.Procs()); err != nil {
			return badJob(400, "session: delta %d: %v (first %d applied)", i, err, resp.Applied)
		}
		if err := s.checkSessionGrowth(ss, d); err != nil {
			return badJob(errStatus(err), "session: delta %d: %v", i, err)
		}
		if _, err := lbdb.ApplyDelta(ss.state, d); err != nil {
			return badJob(400, "session: delta %d: %v (first %d applied)", i, err, resp.Applied)
		}
		resp.Applied++
	}
	s.stats.sessionDeltas.Add(int64(resp.Applied))
	return nil
}

// remap refines the session's state in place under the migration budget
// and adopts the result when it moved tasks and its gain, net of the
// migration cost, clears the threshold; otherwise it reverts the state to
// the placement and hop-bytes it had before, keeping the clean bits the
// undo left sound. Callers hold ss.mu.
func (s *Server) remap(ss *session, resp *deltasResponse) (err error) {
	defer s.containSession(ss, "refine", &err)
	if faultHook != nil {
		faultHook("session-refine", nil)
	}
	res := ss.state.RefineIncremental(ss.opts)
	gain := res.HopBytesBefore - res.HopBytesAfter
	net := gain - float64(ss.opts.MigrationCost*float64(res.Migrations))
	if res.Migrations > 0 && net > ss.thresh*res.HopBytesBefore {
		// Adopt: the pushed placement becomes the new anchor, so the next
		// remap's budget counts migrations from what the client has after
		// acting on this push.
		ss.state.SetAnchor()
		ss.bumpLocked()
		resp.Remapped = true
		resp.Migrations = res.Migrations
		resp.Gain = gain
		s.stats.remapsPushed.Add(1)
	} else {
		ss.state.Revert()
		s.stats.remapsSuppressed.Add(1)
	}
	return nil
}

// containSession, deferred around one stage of a delta batch, turns a
// panic inside it into a typed 500 in *err, counted in internal_errors,
// and closes the session: its state may be half-applied, so watchers get
// "closed" and later requests 404. The handler's own defers still release
// the admission slot and the session lock. Callers hold ss.mu.
func (s *Server) containSession(ss *session, stage string, err *error) {
	if r := recover(); r != nil {
		s.stats.internalErrors.Add(1)
		*err = badJob(500, "session: internal error in %s: %v", stage, r)
		if s.sessions.remove(ss.id) {
			s.stats.sessionsClosed.Add(1)
		}
	}
}

// checkSessionGrowth enforces the per-session memory bounds before a
// delta is applied: task slots stay within MaxTasks and communication
// edges within MaxSessionEdges (comm updates are rejected at the edge
// bound too — distinguishing update from insert is not worth the probe).
func (s *Server) checkSessionGrowth(ss *session, d lbdb.Delta) error {
	switch d.Kind {
	case lbdb.DeltaAdd:
		if ss.state.NumSlots() >= s.cfg.MaxTasks {
			return badJob(413, "session has %d task slots, limit is %d", ss.state.NumSlots(), s.cfg.MaxTasks)
		}
	case lbdb.DeltaComm:
		if d.Bytes > 0 && ss.state.NumEdges() >= s.cfg.MaxSessionEdges {
			return badJob(413, "session has %d comm edges, limit is %d", ss.state.NumEdges(), s.cfg.MaxSessionEdges)
		}
	}
	return nil
}

// handleSessionGet serves GET /v1/sessions/{id}.
func (s *Server) handleSessionGet(w http.ResponseWriter, r *http.Request) {
	ss, ok := s.sessions.get(r.PathValue("id"))
	if !ok {
		s.writeError(w, 404, badJob(404, "session %q not found", r.PathValue("id")))
		return
	}
	ss.mu.Lock()
	if ss.closedLocked() {
		// Closed while this request waited for the lock, as in
		// handleSessionDeltas.
		ss.mu.Unlock()
		s.writeError(w, 404, badJob(404, "session %q not found", ss.id))
		return
	}
	info := ss.infoLocked(true)
	ss.mu.Unlock()
	s.writeJSON(w, info)
}

// handleSessionDelete serves DELETE /v1/sessions/{id}; watchers get a
// "closed" event.
func (s *Server) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	if !s.sessions.remove(r.PathValue("id")) {
		s.writeError(w, 404, badJob(404, "session %q not found", r.PathValue("id")))
		return
	}
	s.stats.sessionsClosed.Add(1)
	s.writeBody(w, []byte(`{"ok":true}`))
}

// Watch event names. Every watch response is exactly one terminal event.
const (
	watchMapping  = "mapping"  // a new placement was pushed; body carries it
	watchTimeout  = "timeout"  // nothing changed within the window; poll again
	watchClosed   = "closed"   // session deleted or evicted; stop polling
	watchShutdown = "shutdown" // server stopping; stop polling
)

// watchEvent is the wire form of GET /v1/sessions/{id}/watch.
//
//lint:ignore jsoncontract hop_bytes marshals via Go's shortest-form strconv — deterministic for identical session state per the incremental engine's exactness contract
type watchEvent struct {
	Event    string  `json:"event"`
	Version  int64   `json:"version,omitempty"`
	HopBytes float64 `json:"hop_bytes,omitempty"`
	Mapping  []int   `json:"mapping,omitempty"`
}

// eventLocked is the watch event for a version the watcher has not seen:
// the current placement, or "closed" when the session was closed since
// the handler found it. Callers hold ss.mu.
func (ss *session) eventLocked() watchEvent {
	if ss.closedLocked() {
		return watchEvent{Event: watchClosed}
	}
	return watchEvent{Event: watchMapping, Version: ss.version, HopBytes: ss.state.HopBytes(), Mapping: ss.state.Mapping()}
}

// handleSessionWatch serves GET /v1/sessions/{id}/watch?version=N: a
// long-poll that returns immediately when the session's mapping version
// already exceeds N, and otherwise blocks — no goroutines, just the
// handler parked on a select — until a push, the watch window elapsing,
// session close, or server shutdown.
func (s *Server) handleSessionWatch(w http.ResponseWriter, r *http.Request) {
	ss, ok := s.sessions.get(r.PathValue("id"))
	if !ok {
		s.writeError(w, 404, badJob(404, "session %q not found", r.PathValue("id")))
		return
	}
	since := int64(0)
	if v := r.URL.Query().Get("version"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil || n < 0 {
			s.writeError(w, 400, badJob(400, "session: bad version %q", v))
			return
		}
		since = n
	}
	s.stats.watchRequests.Add(1)
	s.stats.watchersActive.Add(1)
	defer s.stats.watchersActive.Add(-1)

	ss.mu.Lock()
	if ss.version > since {
		ev := ss.eventLocked()
		ss.mu.Unlock()
		s.writeJSON(w, ev)
		return
	}
	changed := ss.changed
	ss.mu.Unlock()

	timer := time.NewTimer(s.cfg.WatchTimeout)
	defer timer.Stop()
	select {
	case <-changed:
		ss.mu.Lock()
		ev := ss.eventLocked()
		ss.mu.Unlock()
		s.writeJSON(w, ev)
	case <-ss.closed:
		s.writeJSON(w, watchEvent{Event: watchClosed})
	case <-s.baseCtx.Done():
		s.writeJSON(w, watchEvent{Event: watchShutdown})
	case <-r.Context().Done():
		// Client went away; nothing to write.
		s.stats.cancelled.Add(1)
	case <-timer.C:
		s.stats.watchTimeouts.Add(1)
		s.writeJSON(w, watchEvent{Event: watchTimeout})
	}
}
