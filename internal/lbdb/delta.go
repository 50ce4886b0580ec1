// Delta log: the typed mutation stream of the online load-balancing loop.
//
// In the paper's measurement-based setting (§5.1), loads and communication
// volumes drift while the program runs; the runtime observes the drift as
// a sequence of per-chare measurements rather than as fresh full dumps.
// A Delta is one such observation — a load update, a communication-edge
// update, or a chare creation/deletion — and a []Delta is the wire form
// topomapd sessions stream to keep a server-side IncrementalState
// current without re-sending the database.
//
// Deltas apply to both representations: Database.Apply replays one onto
// an offline dump (so +LBSim-style evaluation can replay the same drift),
// and ApplyDelta feeds one to a core.IncrementalState (the O(deg)
// hop-bytes maintenance path). Applying the same stream both ways yields
// bit-identical hop-bytes; the property test in delta_test.go pins this.
//
// Streams must only reference live chare ids: ApplyDelta rejects deltas
// against removed tasks (the state tracks liveness), while Database.Apply
// cannot distinguish a placeholder from a live zero-load chare.
package lbdb

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/topology"
)

// DeltaKind names one mutation type.
type DeltaKind string

const (
	// DeltaLoad replaces chare Task's measured load with Load.
	DeltaLoad DeltaKind = "load"
	// DeltaComm replaces the communication volume between Task and Other
	// with Bytes (0 removes the edge).
	DeltaComm DeltaKind = "comm"
	// DeltaAdd creates a new chare with load Load on processor Proc. Its
	// id is the next unused one (len(Chares) for a Database; the value
	// AddTask returns for an IncrementalState).
	DeltaAdd DeltaKind = "add"
	// DeltaRemove deletes chare Task: its load and edges go away, and the
	// id is retired — a placeholder keeps later ids stable.
	DeltaRemove DeltaKind = "remove"
)

// Delta is one typed mutation of the load/communication record.
type Delta struct {
	Kind DeltaKind `json:"kind"`
	// Task is the chare the delta concerns (unused for "add").
	Task int `json:"task,omitempty"`
	// Other is the communication partner for "comm".
	Other int `json:"other,omitempty"`
	// Load is the new measured load for "load" and "add".
	Load float64 `json:"load,omitempty"`
	// Bytes is the new communication volume for "comm".
	Bytes float64 `json:"bytes,omitempty"`
	// Proc is the initial placement for "add".
	Proc int `json:"proc,omitempty"`
}

// Validate checks d against a record with tasks chare ids and procs
// processors. It cannot check liveness — Apply reports that.
func (d Delta) Validate(tasks, procs int) error {
	switch d.Kind {
	case DeltaLoad:
		if d.Task < 0 || d.Task >= tasks {
			return fmt.Errorf("lbdb: delta %s: task %d out of [0,%d)", d.Kind, d.Task, tasks)
		}
		if d.Load < 0 {
			return fmt.Errorf("lbdb: delta %s: negative load", d.Kind)
		}
	case DeltaComm:
		if d.Task < 0 || d.Task >= tasks || d.Other < 0 || d.Other >= tasks {
			return fmt.Errorf("lbdb: delta %s: pair (%d,%d) out of [0,%d)", d.Kind, d.Task, d.Other, tasks)
		}
		if d.Task == d.Other {
			return fmt.Errorf("lbdb: delta %s: self-communication on %d", d.Kind, d.Task)
		}
		if d.Bytes < 0 {
			return fmt.Errorf("lbdb: delta %s: negative bytes", d.Kind)
		}
		if !(d.Bytes <= maxBytes) {
			return fmt.Errorf("lbdb: delta %s: %g bytes, above 2^53", d.Kind, d.Bytes)
		}
	case DeltaAdd:
		if d.Load < 0 {
			return fmt.Errorf("lbdb: delta %s: negative load", d.Kind)
		}
		if d.Proc < 0 || d.Proc >= procs {
			return fmt.Errorf("lbdb: delta %s: processor %d out of [0,%d)", d.Kind, d.Proc, procs)
		}
	case DeltaRemove:
		if d.Task < 0 || d.Task >= tasks {
			return fmt.Errorf("lbdb: delta %s: task %d out of [0,%d)", d.Kind, d.Task, tasks)
		}
	default:
		return fmt.Errorf("lbdb: unknown delta kind %q", d.Kind)
	}
	return nil
}

// Apply replays d onto the database and returns the id the delta
// concerned (for "add", the id of the new chare). Removal keeps a
// zero-load, edge-free placeholder chare so later ids in the stream stay
// stable — mirroring how IncrementalState retires ids.
func (db *Database) Apply(d Delta) (int, error) {
	if err := d.Validate(len(db.Chares), db.NumProcs); err != nil {
		return 0, err
	}
	switch d.Kind {
	case DeltaLoad:
		db.Chares[d.Task].Load = d.Load
		return d.Task, nil
	case DeltaComm:
		a, b := int32(d.Task), int32(d.Other)
		if a > b {
			a, b = b, a
		}
		for i := range db.Comms {
			if db.Comms[i].From == a && db.Comms[i].To == b {
				if d.Bytes > 0 {
					db.Comms[i].Bytes = d.Bytes
				} else {
					db.Comms = append(db.Comms[:i], db.Comms[i+1:]...)
				}
				return d.Task, nil
			}
		}
		if d.Bytes > 0 {
			db.Comms = append(db.Comms, Comm{From: a, To: b, Bytes: d.Bytes})
		}
		return d.Task, nil
	case DeltaAdd:
		db.Chares = append(db.Chares, ChareStats{Load: d.Load, Proc: d.Proc})
		return len(db.Chares) - 1, nil
	default: // DeltaRemove
		db.Chares[d.Task].Load = 0
		a := int32(d.Task)
		kept := db.Comms[:0]
		for _, c := range db.Comms {
			if c.From != a && c.To != a {
				kept = append(kept, c)
			}
		}
		db.Comms = kept
		return d.Task, nil
	}
}

// ApplyDelta feeds d to an incremental state and returns the id the delta
// concerned (for "add", the id of the new task).
func ApplyDelta(s *core.IncrementalState, d Delta) (int, error) {
	if err := d.Validate(s.NumSlots(), s.Procs()); err != nil {
		return 0, err
	}
	switch d.Kind {
	case DeltaLoad:
		return d.Task, s.SetLoad(d.Task, d.Load)
	case DeltaComm:
		return d.Task, s.SetComm(d.Task, d.Other, d.Bytes)
	case DeltaAdd:
		return s.AddTask(d.Load, d.Proc)
	default: // DeltaRemove
		return d.Task, s.RemoveTask(d.Task)
	}
}

// Incremental builds a core.IncrementalState for the database on
// topology t, placed exactly as instrumented (chare i on Chares[i].Proc).
// t must have NumProcs nodes.
func (db *Database) Incremental(t topology.Topology) (*core.IncrementalState, error) {
	if t.Nodes() != db.NumProcs {
		return nil, fmt.Errorf("lbdb: database recorded %d procs but topology has %d nodes",
			db.NumProcs, t.Nodes())
	}
	g, err := db.TaskGraph()
	if err != nil {
		return nil, err
	}
	return core.NewIncrementalState(g, t, db.Placement())
}
