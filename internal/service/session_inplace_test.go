package service

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/lbdb"
	"repro/internal/topology"
)

// TestSessionInPlaceNeverObservedHalfRefined streams load and comm
// batches to one session — some remaps pushed, some dropped and reverted
// — while readers poll GET /v1/sessions/{id} and long-poll
// /watch?version=N. A library twin replays every batch on a clone, the
// way sessions refined before they refined in place, and records the
// mapping each pushed version carries. Every mapping a reader sees at a
// version must be that version's, and the version must grow exactly when
// a remap is pushed: a reader never catches the state mid-refinement or
// holding a refinement that was then reverted. It is part of CI's -race
// mapping-service step.
func TestSessionInPlaceNeverObservedHalfRefined(t *testing.T) {
	goroutines := runtime.NumGoroutine()
	srv := NewServer(Config{WatchTimeout: 20 * time.Millisecond})
	ts := httptest.NewServer(srv.Handler())

	// 64 chares on a 4×4 mesh, scattered at random: a ring plus random
	// chords, so refinement has moves to find on every stream.
	const chares, batches = 64, 60
	rng := rand.New(rand.NewSource(3))
	db := &lbdb.Database{NumProcs: 16, Chares: make([]lbdb.ChareStats, chares)}
	for v := range db.Chares {
		db.Chares[v] = lbdb.ChareStats{Load: 1, Proc: rng.Intn(16)}
	}
	seen := map[[2]int32]bool{}
	for v := 0; v < chares; v++ {
		for _, u := range []int{(v + 1) % chares, rng.Intn(chares)} {
			e := [2]int32{int32(min(u, v)), int32(max(u, v))}
			if u != v && !seen[e] {
				seen[e] = true
				db.Comms = append(db.Comms, lbdb.Comm{From: e[0], To: e[1], Bytes: float64(1000 * (1 + rng.Intn(100)))})
			}
		}
	}
	budget := 4
	spec, err := json.Marshal(SessionSpec{Topology: "mesh:4,4", DB: db, Threshold: 0.01, MigrationBudget: &budget})
	if err != nil {
		t.Fatal(err)
	}
	status, created := doJSON(t, ts, "POST", "/v1/sessions", string(spec))
	wantStatus(t, status, 201, nil)
	id := created["id"].(string)

	twin, err := db.Incremental(topology.MustMesh(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	opts := core.IncRefineOptions{MaxMigrations: budget}
	var mu sync.Mutex                                         // guards pushed and sightings
	pushed := map[int64]string{1: fmt.Sprint(twin.Mapping())} // version -> mapping, as the twin has it

	// Readers record every (version, mapping) they see until the writer
	// is done; the check runs once the twin has every version.
	type sighting struct {
		from    string
		version int64
		mapping string
	}
	var sightings []sighting
	record := func(from string, version int64, mapping []int) {
		mu.Lock()
		sightings = append(sightings, sighting{from, version, fmt.Sprint(mapping)})
		mu.Unlock()
	}
	get := func(path string, v any) bool {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Error(err)
			return false
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != 200 {
			t.Errorf("GET %s: status %d, %v: %s", path, resp.StatusCode, err, raw)
			return false
		}
		if err := json.Unmarshal(raw, v); err != nil {
			t.Errorf("GET %s: %v", path, err)
			return false
		}
		return true
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // snapshot reader
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			var info sessionInfo
			if !get("/v1/sessions/"+id, &info) {
				return
			}
			record("GET", info.Version, info.Mapping)
		}
	}()
	go func() { // watcher
		defer wg.Done()
		last := int64(0)
		for {
			select {
			case <-done:
				return
			default:
			}
			var ev watchEvent
			if !get(fmt.Sprintf("/v1/sessions/%s/watch?version=%d", id, last), &ev) {
				return
			}
			switch ev.Event {
			case watchMapping:
				if ev.Version <= last {
					t.Errorf("watch?version=%d answered version %d", last, ev.Version)
				}
				last = ev.Version
				record("watch", ev.Version, ev.Mapping)
			case watchTimeout:
			default:
				t.Errorf("watch event %q", ev.Event)
				return
			}
		}
	}()

	version, pushes, drops := int64(1), 0, 0
	for b := 0; b < batches; b++ {
		deltas := make([]lbdb.Delta, 8)
		for k := range deltas {
			if rng.Intn(2) == 0 {
				deltas[k] = lbdb.Delta{Kind: lbdb.DeltaLoad, Task: rng.Intn(chares), Load: 0.5 + rng.Float64()}
			} else {
				e := db.Comms[rng.Intn(len(db.Comms))]
				deltas[k] = lbdb.Delta{Kind: lbdb.DeltaComm, Task: int(e.From), Other: int(e.To), Bytes: float64(1000 * (1 + rng.Intn(400)))}
			}
		}
		for _, d := range deltas {
			if _, err := lbdb.ApplyDelta(twin, d); err != nil {
				t.Fatal(err)
			}
		}
		refined := twin.Clone()
		res := refined.RefineIncremental(opts)
		adopt := res.Migrations > 0 && res.HopBytesBefore-res.HopBytesAfter > 0.01*res.HopBytesBefore
		if adopt {
			refined.SetAnchor()
			twin = refined
			version++
			pushes++
			mu.Lock()
			pushed[version] = fmt.Sprint(twin.Mapping())
			mu.Unlock()
		} else {
			drops++
		}

		payload, err := json.Marshal(deltasRequest{Deltas: deltas})
		if err != nil {
			t.Fatal(err)
		}
		status, reply := doJSON(t, ts, "POST", "/v1/sessions/"+id+"/deltas", string(payload))
		wantStatus(t, status, 200, nil)
		if reply["remapped"] != adopt || int64(reply["version"].(float64)) != version ||
			math.Float64bits(reply["hop_bytes"].(float64)) != math.Float64bits(twin.HopBytes()) {
			t.Fatalf("batch %d: session replied %v; twin: remapped %t, version %d, hop_bytes %v",
				b, reply, adopt, version, twin.HopBytes())
		}
	}
	close(done)
	wg.Wait()
	if pushes == 0 || drops == 0 {
		t.Fatalf("%d remaps pushed, %d dropped: the stream must exercise both", pushes, drops)
	}

	for _, s := range sightings {
		want, ok := pushed[s.version]
		if !ok {
			t.Fatalf("%s saw version %d; only 1..%d were pushed", s.from, s.version, version)
		}
		if s.mapping != want {
			t.Fatalf("%s saw version %d with a mapping that version never carried", s.from, s.version)
		}
	}
	t.Logf("%d batches: %d pushed, %d dropped; %d sightings", batches, pushes, drops, len(sightings))

	ts.Close()
	srv.Close()
	awaitGoroutines(t, goroutines)
}
