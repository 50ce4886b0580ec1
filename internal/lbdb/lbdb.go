// Package lbdb implements the load-balancing database at the heart of the
// Charm++ measurement-based load-balancing framework the paper builds on
// (§1, §5.1): a record of each chare's measured computation load and of
// the bytes exchanged between chare pairs during an instrumented execution
// window.
//
// Databases serialize to files — the paper's +LBDump mechanism — and can
// be re-loaded later to evaluate different mapping strategies offline on
// identical load scenarios (+LBSim), "which is not possible in actual
// execution because of non-deterministic interleaving of events".
package lbdb

import (
	"encoding/gob"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/taskgraph"
)

// ChareStats is one chare's instrumentation record.
type ChareStats struct {
	// Load is the measured computation time (seconds of work).
	Load float64 `json:"load"`
	// Proc is the processor the chare ran on during instrumentation.
	Proc int `json:"proc"`
}

// Comm is the measured communication between a pair of chares (summed
// over both directions).
type Comm struct {
	From  int32   `json:"from"`
	To    int32   `json:"to"`
	Bytes float64 `json:"bytes"`
}

// maxBytes bounds one pair's recorded volume: 2^53, below which integer
// byte counts are exact in float64 (the incremental engine's exactness
// contract), and far below where a hop-bytes total overflows to +Inf. A
// NaN volume fails the same check.
const maxBytes = 1 << 53

// Database is a dump of one load-balancing step.
type Database struct {
	// Step is the load-balancing step number this dump captures.
	Step int `json:"step,omitempty"`
	// NumProcs is the processor count of the instrumented run.
	NumProcs int `json:"num_procs"`
	// Chares holds per-chare load and placement.
	Chares []ChareStats `json:"chares"`
	// Comms holds pairwise communication records (From < To, no
	// duplicates).
	Comms []Comm `json:"comms,omitempty"`
}

// Validate checks structural invariants.
func (db *Database) Validate() error {
	if db.NumProcs < 1 {
		return fmt.Errorf("lbdb: NumProcs = %d", db.NumProcs)
	}
	if len(db.Chares) == 0 {
		return fmt.Errorf("lbdb: no chares")
	}
	n := int32(len(db.Chares))
	for i, c := range db.Chares {
		if c.Load < 0 {
			return fmt.Errorf("lbdb: chare %d has negative load", i)
		}
		if c.Proc < 0 || c.Proc >= db.NumProcs {
			return fmt.Errorf("lbdb: chare %d on processor %d, out of [0,%d)", i, c.Proc, db.NumProcs)
		}
	}
	seen := make(map[[2]int32]bool, len(db.Comms))
	for _, c := range db.Comms {
		if c.From < 0 || c.From >= n || c.To < 0 || c.To >= n {
			return fmt.Errorf("lbdb: comm (%d,%d) out of range", c.From, c.To)
		}
		if c.From >= c.To {
			return fmt.Errorf("lbdb: comm (%d,%d) must satisfy From < To", c.From, c.To)
		}
		if c.Bytes < 0 {
			return fmt.Errorf("lbdb: comm (%d,%d) has negative bytes", c.From, c.To)
		}
		if !(c.Bytes <= maxBytes) {
			return fmt.Errorf("lbdb: comm (%d,%d) has %g bytes, above 2^53", c.From, c.To, c.Bytes)
		}
		k := [2]int32{c.From, c.To}
		if seen[k] {
			return fmt.Errorf("lbdb: duplicate comm (%d,%d)", c.From, c.To)
		}
		seen[k] = true
	}
	return nil
}

// TaskGraph converts the database into the weighted task graph the
// mapping pipeline consumes: vertex weights are measured loads, edge
// weights measured bytes.
func (db *Database) TaskGraph() (*taskgraph.Graph, error) {
	if err := db.Validate(); err != nil {
		return nil, err
	}
	b := taskgraph.NewBuilder(len(db.Chares))
	for i, c := range db.Chares {
		b.SetVertexWeight(i, c.Load)
	}
	for _, c := range db.Comms {
		b.AddEdge(int(c.From), int(c.To), c.Bytes)
	}
	return b.Build(fmt.Sprintf("lbdb(step=%d)", db.Step)), nil
}

// ProcLoads returns per-processor total measured load under the recorded
// placement.
func (db *Database) ProcLoads() []float64 {
	loads := make([]float64, db.NumProcs)
	for _, c := range db.Chares {
		loads[c.Proc] += c.Load
	}
	return loads
}

// Placement returns the recorded chare → processor assignment.
func (db *Database) Placement() []int {
	m := make([]int, len(db.Chares))
	for i, c := range db.Chares {
		m[i] = c.Proc
	}
	return m
}

// Dump writes the database in gob form (the +LBDump file).
func (db *Database) Dump(w io.Writer) error {
	if err := db.Validate(); err != nil {
		return err
	}
	return gob.NewEncoder(w).Encode(db)
}

// Read loads a gob dump written by Dump.
func Read(r io.Reader) (*Database, error) {
	var db Database
	if err := gob.NewDecoder(r).Decode(&db); err != nil {
		return nil, fmt.Errorf("lbdb: decode: %w", err)
	}
	if err := db.Validate(); err != nil {
		return nil, err
	}
	return &db, nil
}

// DumpJSON writes a human-readable dump.
func (db *Database) DumpJSON(w io.Writer) error {
	if err := db.Validate(); err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(db)
}

// ReadJSON loads a JSON dump.
func ReadJSON(r io.Reader) (*Database, error) {
	var db Database
	if err := json.NewDecoder(r).Decode(&db); err != nil {
		return nil, fmt.Errorf("lbdb: decode json: %w", err)
	}
	if err := db.Validate(); err != nil {
		return nil, err
	}
	return &db, nil
}
