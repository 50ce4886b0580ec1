package lbdb

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/topology"
)

// randomDB builds a database with integer byte counts (the exact-sum
// regime of the determinism contract) on procs processors.
func randomDB(chares, procs int, rng *rand.Rand) *Database {
	db := &Database{Step: 1, NumProcs: procs}
	for i := 0; i < chares; i++ {
		db.Chares = append(db.Chares, ChareStats{
			Load: float64(rng.Intn(20)),
			Proc: rng.Intn(procs),
		})
	}
	for a := 0; a < chares; a++ {
		for b := a + 1; b < chares; b++ {
			if rng.Intn(4) == 0 {
				db.Comms = append(db.Comms, Comm{From: int32(a), To: int32(b), Bytes: float64(1 + rng.Intn(5000))})
			}
		}
	}
	return db
}

// TestDeltaStreamBitIdenticalToRebuild is the delta-log property test:
// any interleaved stream of load/comm/add/remove deltas applied to an
// IncrementalState yields hop-bytes bit-identical (math.Float64bits) to
// rebuilding a fresh state from the equally-replayed Database — and to a
// full core.HopBytes recompute — at every checkpoint.
func TestDeltaStreamBitIdenticalToRebuild(t *testing.T) {
	to := topology.MustTorus(4, 4)
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := randomDB(20, to.Nodes(), rng)
		s, err := db.Incremental(to)
		if err != nil {
			t.Fatal(err)
		}
		live := make([]int, len(db.Chares))
		for i := range live {
			live[i] = i
		}
		randLive := func() int { return live[rng.Intn(len(live))] }
		for step := 0; step < 400; step++ {
			var d Delta
			switch k := rng.Intn(12); {
			case k < 4:
				d = Delta{Kind: DeltaComm, Task: randLive(), Other: randLive(), Bytes: float64(rng.Intn(4000))}
				if d.Task == d.Other {
					continue
				}
			case k < 7:
				d = Delta{Kind: DeltaLoad, Task: randLive(), Load: float64(rng.Intn(30))}
			case k < 9 && len(live) > 4:
				i := rng.Intn(len(live))
				d = Delta{Kind: DeltaRemove, Task: live[i]}
				live = append(live[:i], live[i+1:]...)
			default:
				d = Delta{Kind: DeltaAdd, Load: float64(rng.Intn(10)), Proc: rng.Intn(db.NumProcs)}
			}
			idState, err := ApplyDelta(s, d)
			if err != nil {
				t.Fatalf("seed %d step %d: state apply: %v", seed, step, err)
			}
			idDB, err := db.Apply(d)
			if err != nil {
				t.Fatalf("seed %d step %d: db apply: %v", seed, step, err)
			}
			if idState != idDB {
				t.Fatalf("seed %d step %d: state id %d != db id %d", seed, step, idState, idDB)
			}
			if d.Kind == DeltaAdd {
				live = append(live, idState)
			}

			if step%20 != 0 {
				continue
			}
			// Checkpoint: rebuild from the replayed database and compare
			// exactly. The database carries no migration state, so compare
			// under the database's recorded placement by moving a copy.
			rebuilt, err := db.Incremental(to)
			if err != nil {
				t.Fatalf("seed %d step %d: rebuild: %v", seed, step, err)
			}
			snap := s.Clone()
			for v := 0; v < snap.NumSlots(); v++ {
				if snap.Alive(v) {
					if err := snap.MoveTask(v, db.Chares[v].Proc); err != nil {
						t.Fatal(err)
					}
				}
			}
			got, want := snap.HopBytes(), rebuilt.HopBytes()
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("seed %d step %d: incremental %v (bits %x) != rebuilt %v (bits %x)",
					seed, step, got, math.Float64bits(got), want, math.Float64bits(want))
			}
			g, err := db.TaskGraph()
			if err != nil {
				t.Fatal(err)
			}
			full := core.HopBytes(g, to, db.Placement())
			if math.Float64bits(want) != math.Float64bits(full) {
				t.Fatalf("seed %d step %d: rebuilt %v != full recompute %v", seed, step, want, full)
			}
		}
	}
}

// TestDeltaStreamTracksPlacement: moves applied through the state keep
// its own placement's hop-bytes exact (the session path, where placement
// evolves away from the database's record).
func TestDeltaStreamTracksPlacement(t *testing.T) {
	to := topology.MustTorus(2, 4)
	rng := rand.New(rand.NewSource(42))
	db := randomDB(16, to.Nodes(), rng)
	s, err := db.Incremental(to)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 200; step++ {
		switch rng.Intn(3) {
		case 0:
			a, b := rng.Intn(16), rng.Intn(16)
			if a == b {
				continue
			}
			if _, err := ApplyDelta(s, Delta{Kind: DeltaComm, Task: a, Other: b, Bytes: float64(rng.Intn(999))}); err != nil {
				t.Fatal(err)
			}
		case 1:
			if err := s.MoveTask(rng.Intn(16), rng.Intn(to.Nodes())); err != nil {
				t.Fatal(err)
			}
		default:
			if _, err := ApplyDelta(s, Delta{Kind: DeltaLoad, Task: rng.Intn(16), Load: float64(rng.Intn(9))}); err != nil {
				t.Fatal(err)
			}
		}
	}
	got := s.HopBytes()
	want := core.HopBytes(s.Graph("check"), to, s.Mapping())
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("incremental %v != full %v", got, want)
	}
}

// TestDeltaValidate: malformed deltas are rejected with errors, valid
// ones pass.
func TestDeltaValidate(t *testing.T) {
	bad := []Delta{
		{Kind: "bogus"},
		{Kind: DeltaLoad, Task: -1},
		{Kind: DeltaLoad, Task: 99},
		{Kind: DeltaLoad, Task: 0, Load: -1},
		{Kind: DeltaComm, Task: 0, Other: 0},
		{Kind: DeltaComm, Task: 0, Other: 99},
		{Kind: DeltaComm, Task: 0, Other: 1, Bytes: -4},
		{Kind: DeltaComm, Task: 0, Other: 1, Bytes: 1<<53 + 2},
		{Kind: DeltaComm, Task: 0, Other: 1, Bytes: 1e308},
		{Kind: DeltaComm, Task: 0, Other: 1, Bytes: math.Inf(1)},
		{Kind: DeltaComm, Task: 0, Other: 1, Bytes: math.NaN()},
		{Kind: DeltaAdd, Load: -1},
		{Kind: DeltaAdd, Proc: 99},
		{Kind: DeltaRemove, Task: 99},
	}
	for i, d := range bad {
		if err := d.Validate(10, 4); err == nil {
			t.Errorf("case %d (%+v): no error", i, d)
		}
	}
	good := []Delta{
		{Kind: DeltaLoad, Task: 3, Load: 2.5},
		{Kind: DeltaComm, Task: 0, Other: 1, Bytes: 0},
		{Kind: DeltaComm, Task: 0, Other: 1, Bytes: 1 << 53},
		{Kind: DeltaAdd, Load: 0, Proc: 3},
		{Kind: DeltaRemove, Task: 9},
	}
	for i, d := range good {
		if err := d.Validate(10, 4); err != nil {
			t.Errorf("case %d (%+v): %v", i, d, err)
		}
	}
}

// TestDeltaCommRemoveAndJSON: comm deltas with zero bytes remove edges in
// both representations, and deltas survive a JSON round trip.
func TestDeltaCommRemoveAndJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	to := topology.MustTorus(2, 2)
	db := randomDB(6, 4, rng)
	s, err := db.Incremental(to)
	if err != nil {
		t.Fatal(err)
	}
	deltas := []Delta{
		{Kind: DeltaComm, Task: 0, Other: 1, Bytes: 777},
		{Kind: DeltaComm, Task: 0, Other: 1, Bytes: 0},
		{Kind: DeltaComm, Task: 2, Other: 5, Bytes: 123},
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(deltas); err != nil {
		t.Fatal(err)
	}
	var decoded []Delta
	if err := json.NewDecoder(&buf).Decode(&decoded); err != nil {
		t.Fatal(err)
	}
	for i, d := range decoded {
		if d != deltas[i] {
			t.Fatalf("round trip changed delta %d: %+v != %+v", i, d, deltas[i])
		}
		if _, err := ApplyDelta(s, d); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Apply(d); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.NumEdges(); got != countEdges(db) {
		t.Fatalf("state has %d edges, db %d", got, countEdges(db))
	}
	got := s.HopBytes()
	g, err := db.TaskGraph()
	if err != nil {
		t.Fatal(err)
	}
	want := core.HopBytes(g, to, db.Placement())
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("hop-bytes diverged: %v != %v", got, want)
	}
}

func countEdges(db *Database) int { return len(db.Comms) }

// TestApplyDeltaRejectsDeadTasks: the state enforces liveness.
func TestApplyDeltaRejectsDeadTasks(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	to := topology.MustTorus(2, 2)
	db := randomDB(6, 4, rng)
	s, err := db.Incremental(to)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ApplyDelta(s, Delta{Kind: DeltaRemove, Task: 2}); err != nil {
		t.Fatal(err)
	}
	for _, d := range []Delta{
		{Kind: DeltaLoad, Task: 2, Load: 1},
		{Kind: DeltaComm, Task: 2, Other: 0, Bytes: 5},
		{Kind: DeltaRemove, Task: 2},
	} {
		if _, err := ApplyDelta(s, d); err == nil {
			t.Errorf("%+v applied to dead task", d)
		}
	}
}
