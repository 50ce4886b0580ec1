package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"time"

	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/lbdb"
	"repro/internal/service"
	"repro/internal/topology"
)

// session-stream uses core and service differently from the map
// workloads: live sessions hold a core.IncrementalState, every delta
// batch applies O(degree) updates and speculatively refines a clone under
// a migration budget, behind session locks instead of the cache and the
// coalescer. A refiner change that helps Refine but costs
// RefineIncremental shows here and only here.

type sessionShape struct {
	rx, ry     int // stencil9 task grid
	px, py     int // torus
	batch      int // deltas per batch
	probeSteps int // batches of the pinned quality stream
	block      int // batches per timed block
}

func sessionShapeFor(smoke bool) sessionShape {
	if smoke {
		return sessionShape{16, 16, 4, 4, 8, 10, 8}
	}
	return sessionShape{64, 64, 16, 16, 32, 120, 32}
}

// Session parameters: at most sessionBudget tasks migrate per pushed
// remap, found in at most sessionPasses sweeps, pushed when the gain
// clears sessionThreshold of the current hop-bytes.
const (
	sessionBudget    = 64
	sessionPasses    = 2
	sessionThreshold = 0.002
	// probeSeed pins the quality stream, so hops_per_byte repeats exactly
	// whatever -seed is.
	probeSeed = 20060425
)

// deltasBody and deltasReply mirror the wire forms of
// POST /v1/sessions/{id}/deltas.
type deltasBody struct {
	Deltas  []lbdb.Delta `json:"deltas"`
	NoRemap bool         `json:"no_remap,omitempty"`
}

type deltasReply struct {
	Applied    int     `json:"applied"`
	Version    int64   `json:"version"`
	HopBytes   float64 `json:"hop_bytes"`
	Remapped   bool    `json:"remapped"`
	Migrations int     `json:"migrations,omitempty"`
	Gain       float64 `json:"gain,omitempty"`
}

// deltaStream draws load and communication drift: each delta re-measures
// one task's load or one edge's volume.
type deltaStream struct {
	rng   *rand.Rand
	db    *lbdb.Database
	batch int
}

func (s *deltaStream) next() []lbdb.Delta {
	out := make([]lbdb.Delta, s.batch)
	for k := range out {
		if s.rng.Intn(2) == 0 {
			out[k] = lbdb.Delta{Kind: lbdb.DeltaLoad, Task: s.rng.Intn(len(s.db.Chares)), Load: 0.5 + s.rng.Float64()}
		} else {
			e := s.db.Comms[s.rng.Intn(len(s.db.Comms))]
			out[k] = lbdb.Delta{Kind: lbdb.DeltaComm, Task: int(e.From), Other: int(e.To), Bytes: 1e5 * (0.25 + 3.75*s.rng.Float64())}
		}
	}
	return out
}

type sessionStream struct {
	cfg      config
	dims     sessionShape
	srv      *server
	db       *lbdb.Database
	topo     topology.Topology
	specBody []byte
	ids      []string
	streams  []*deltaStream
	ratio    float64 // treated over control hop-bytes of the pinned stream
	snap0    service.Stats
	dist0    topology.DistCacheStats
}

func newSessionStream(cfg config) *sessionStream {
	return &sessionStream{cfg: cfg, dims: sessionShapeFor(cfg.smoke)}
}

func (w *sessionStream) shape() (int, int) { return w.cfg.clients, w.dims.block }
func (w *sessionStream) layerRoot() string { return "replay" }
func (w *sessionStream) opSpan() string    { return "service.request" }
func (w *sessionStream) validate() error   { return nil }

func (w *sessionStream) quality() (float64, float64) { return w.ratio, 1 }

func (w *sessionStream) close() {
	if w.srv != nil {
		w.srv.stop()
		w.srv = nil
	}
}

func (w *sessionStream) topoSpec() string {
	return fmt.Sprintf("torus:%d,%d", w.dims.px, w.dims.py)
}

// buildDB records the stencil's communication with every task at unit
// load, placed in blocks: task (x, y) on the processor of its tile.
func (w *sessionStream) buildDB() error {
	s := w.dims
	g, err := cliutil.ParsePattern(fmt.Sprintf("stencil9:%d,%d", s.rx, s.ry), 1e5, 1)
	if err != nil {
		return err
	}
	db := &lbdb.Database{NumProcs: s.px * s.py, Chares: make([]lbdb.ChareStats, g.NumVertices())}
	for x := 0; x < s.rx; x++ {
		for y := 0; y < s.ry; y++ {
			db.Chares[x*s.ry+y] = lbdb.ChareStats{Load: 1, Proc: (x*s.px/s.rx)*s.py + y*s.py/s.ry}
		}
	}
	for v := 0; v < g.NumVertices(); v++ {
		adj, wgt := g.Neighbors(v)
		for k, u := range adj {
			if int(u) > v {
				db.Comms = append(db.Comms, lbdb.Comm{From: int32(v), To: u, Bytes: wgt[k]})
			}
		}
	}
	w.db = db
	return db.Validate()
}

func (w *sessionStream) setup(sc *spanCtx, tl *tally) error {
	w.dist0 = topology.DistCacheCounters()
	if err := w.buildDB(); err != nil {
		return err
	}
	var err error
	if w.topo, err = cliutil.ParseAnyTopology(w.topoSpec()); err != nil {
		return err
	}
	_, end := sc.span("topology.distmatrix_build")
	topology.CachedDistances(w.topo)
	end()
	budget := sessionBudget
	w.specBody = mustJSON(service.SessionSpec{
		Topology: w.topoSpec(), DB: w.db, Threshold: sessionThreshold,
		MigrationBudget: &budget, RefinePasses: sessionPasses,
	})
	if w.srv, err = startServer(w.cfg.clients); err != nil {
		return err
	}
	w.ids = make([]string, w.cfg.clients)
	w.streams = make([]*deltaStream, w.cfg.clients)
	for c := range w.ids {
		if w.ids[c], err = w.createSession(); err != nil {
			return err
		}
		tl.check(nil)
		w.streams[c] = &deltaStream{rng: rand.New(rand.NewSource(w.cfg.seed<<8 + int64(c))), db: w.db, batch: w.dims.batch}
	}
	w.snap0 = w.srv.srv.Snapshot()
	return nil
}

func (w *sessionStream) createSession() (string, error) {
	status, body, _, err := w.srv.post(0, "/v1/sessions", w.specBody)
	if err != nil {
		return "", err
	}
	if status != http.StatusCreated {
		return "", fmt.Errorf("create session: status %d: %s", status, body)
	}
	var info struct {
		ID      string `json:"id"`
		Mapping []int  `json:"mapping"`
	}
	if err := json.Unmarshal(body, &info); err != nil {
		return "", err
	}
	return info.ID, checkPlacement(info.Mapping, len(w.db.Chares), w.db.NumProcs, true)
}

// sendBatch posts one batch as client c and verifies the reply.
func (w *sessionStream) sendBatch(c int, id string, body deltasBody) (deltasReply, time.Duration, error) {
	var reply deltasReply
	status, resp, lat, err := w.srv.post(c, "/v1/sessions/"+id+"/deltas", mustJSON(body))
	if err != nil {
		return reply, lat, err
	}
	if status != http.StatusOK {
		return reply, lat, fmt.Errorf("deltas: status %d: %s", status, resp)
	}
	if err := json.Unmarshal(resp, &reply); err != nil {
		return reply, lat, fmt.Errorf("reply does not decode: %w", err)
	}
	if reply.Applied != len(body.Deltas) || !(reply.HopBytes > 0) || math.IsInf(reply.HopBytes, 0) {
		return reply, lat, fmt.Errorf("reply applied %d of %d deltas, hop-bytes %v", reply.Applied, len(body.Deltas), reply.HopBytes)
	}
	return reply, lat, nil
}

// probe streams the pinned drift to two fresh sessions — one remapping
// normally, its twin with no_remap — and keeps treated over control
// hop-bytes at the end: what remapping bought. Treated must not be worse.
func (w *sessionStream) probe(tl *tally) error {
	treated, err := w.createSession()
	if err != nil {
		return err
	}
	control, err := w.createSession()
	if err != nil {
		return err
	}
	stream := &deltaStream{rng: rand.New(rand.NewSource(probeSeed)), db: w.db, batch: w.dims.batch}
	var t, k deltasReply
	for b := 0; b < w.dims.probeSteps; b++ {
		deltas := stream.next()
		if t, _, err = w.sendBatch(0, treated, deltasBody{Deltas: deltas}); err != nil {
			return err
		}
		if k, _, err = w.sendBatch(0, control, deltasBody{Deltas: deltas, NoRemap: true}); err != nil {
			return err
		}
	}
	w.ratio = t.HopBytes / k.HopBytes
	if t.HopBytes > k.HopBytes {
		err = fmt.Errorf("remapping made the pinned stream worse: treated %v > control %v hop-bytes", t.HopBytes, k.HopBytes)
	}
	tl.check(err)
	w.snap0 = w.srv.srv.Snapshot()
	return nil
}

func (w *sessionStream) op(c int, _ int64, _ *spanCtx) (time.Duration, error) {
	_, lat, err := w.sendBatch(c, w.ids[c], deltasBody{Deltas: w.streams[c].next()})
	return lat, err
}

// layers streams to one more session, alone (C = 1), and replays every
// batch on a twin state the harness holds: lbdb.ApplyDelta, Clone,
// RefineIncremental and the service's adoption rule. The twin must track
// the session's hop-bytes bit for bit.
func (w *sessionStream) layers(sc *spanCtx, budget time.Duration, tl *tally) (map[string]float64, error) {
	id, err := w.createSession()
	if err != nil {
		return nil, err
	}
	twin, err := w.db.Incremental(w.topo)
	if err != nil {
		return nil, err
	}
	opts := core.IncRefineOptions{MaxPasses: sessionPasses, MaxMigrations: sessionBudget}
	stream := &deltaStream{rng: rand.New(rand.NewSource(w.cfg.seed<<8 + 255)), db: w.db, batch: w.dims.batch}

	var latMS, overheadMS []float64
	migrations := 0
	deadline := time.Now().Add(budget)
	for i := int64(0); time.Now().Before(deadline); i++ {
		body := deltasBody{Deltas: stream.next()}
		payload := mustJSON(body)
		root, endRoot := (&spanCtx{rec: sc.rec, parent: -1, op: i}).span("replay")
		_, end := root.span("service.request")
		reply, lat, err := w.sendBatch(0, id, body)
		end()
		t0 := time.Now()
		if err == nil {
			var mine deltasReply
			twin, mine, err = replayBatch(root, twin, opts, payload)
			if err == nil && (math.Float64bits(mine.HopBytes) != math.Float64bits(reply.HopBytes) ||
				mine.Remapped != reply.Remapped || mine.Migrations != reply.Migrations) {
				err = fmt.Errorf("batch %d: twin state {%v %t %d} differs from the session's {%v %t %d}", i,
					mine.HopBytes, mine.Remapped, mine.Migrations, reply.HopBytes, reply.Remapped, reply.Migrations)
			}
			migrations += mine.Migrations
		}
		chain := time.Since(t0)
		endRoot()
		tl.check(err)
		latMS = append(latMS, float64(lat)/1e6)
		overheadMS = append(overheadMS, float64(lat-chain)/1e6)
	}

	v := svcCounters(w.srv.srv, w.snap0)
	now := w.srv.srv.Snapshot().Sessions
	pushed := now.RemapsPushed - w.snap0.Sessions.RemapsPushed
	if total := pushed + now.RemapsSuppressed - w.snap0.Sessions.RemapsSuppressed; total > 0 {
		v["service.remap_push_ratio"] = float64(pushed) / float64(total)
	}
	v["service.session_overhead_ms"] = mean(overheadMS)
	v["service.c1_p50_ms"] = median(latMS)
	v["core.inc_migrations"] = float64(migrations)
	v["topology.distcache_hit_ratio"] = distHitRatio(w.dist0)
	return v, nil
}

// replayBatch is the library chain of one delta batch, with the service's
// adoption rule: a refined clone replaces the state when it moved tasks
// and its gain clears the threshold.
func replayBatch(sc *spanCtx, st *core.IncrementalState, opts core.IncRefineOptions, payload []byte) (*core.IncrementalState, deltasReply, error) {
	var body deltasBody
	_, end := sc.span("json.decode")
	err := json.Unmarshal(payload, &body)
	end()
	if err != nil {
		return st, deltasReply{}, err
	}
	reply := deltasReply{}
	_, end = sc.span("core.inc_apply")
	for _, d := range body.Deltas {
		if _, err = lbdb.ApplyDelta(st, d); err != nil {
			break
		}
		reply.Applied++
	}
	end()
	if err != nil {
		return st, reply, err
	}
	_, end = sc.span("core.inc_clone")
	refined := st.Clone()
	end()
	_, end = sc.span("core.inc_refine")
	res := refined.RefineIncremental(opts)
	end()
	gain := res.HopBytesBefore - res.HopBytesAfter
	if res.Migrations > 0 && gain-opts.MigrationCost*float64(res.Migrations) > sessionThreshold*res.HopBytesBefore {
		refined.SetAnchor()
		st = refined
		reply.Remapped, reply.Migrations, reply.Gain = true, res.Migrations, gain
	}
	reply.HopBytes = st.HopBytes()
	_, end = sc.span("json.encode")
	_, err = json.Marshal(reply)
	end()
	return st, reply, err
}
