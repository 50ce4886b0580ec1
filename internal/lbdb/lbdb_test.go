package lbdb

import (
	"bytes"
	"math"
	"testing"
)

func sampleDB() *Database {
	return &Database{
		Step:     2,
		NumProcs: 2,
		Chares: []ChareStats{
			{Load: 1.5, Proc: 0},
			{Load: 2.5, Proc: 1},
			{Load: 0.5, Proc: 0},
		},
		Comms: []Comm{
			{From: 0, To: 1, Bytes: 100},
			{From: 1, To: 2, Bytes: 200},
		},
	}
}

func TestValidateAcceptsGood(t *testing.T) {
	if err := sampleDB().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBad(t *testing.T) {
	cases := map[string]func(db *Database){
		"no procs":       func(db *Database) { db.NumProcs = 0 },
		"no chares":      func(db *Database) { db.Chares = nil },
		"negative load":  func(db *Database) { db.Chares[0].Load = -1 },
		"bad proc":       func(db *Database) { db.Chares[0].Proc = 5 },
		"comm range":     func(db *Database) { db.Comms[0].To = 9 },
		"comm order":     func(db *Database) { db.Comms[0].From = 1; db.Comms[0].To = 0 },
		"self comm":      func(db *Database) { db.Comms[0].From = 1; db.Comms[0].To = 1 },
		"negative bytes": func(db *Database) { db.Comms[0].Bytes = -1 },
		"bytes > 2^53":   func(db *Database) { db.Comms[0].Bytes = 1e308 },
		"NaN bytes":      func(db *Database) { db.Comms[0].Bytes = math.NaN() },
		"duplicate":      func(db *Database) { db.Comms[1] = db.Comms[0] },
	}
	for name, mutate := range cases {
		db := sampleDB()
		mutate(db)
		if err := db.Validate(); err == nil {
			t.Errorf("%s: want error", name)
		}
	}
}

func TestTaskGraphFromDatabase(t *testing.T) {
	g, err := sampleDB().TaskGraph()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 3 || g.NumEdges() != 2 {
		t.Fatalf("graph shape (%d,%d)", g.NumVertices(), g.NumEdges())
	}
	if g.VertexWeight(1) != 2.5 {
		t.Errorf("weight = %v", g.VertexWeight(1))
	}
	if g.EdgeWeight(1, 2) != 200 {
		t.Errorf("edge = %v", g.EdgeWeight(1, 2))
	}
}

func TestProcLoadsAndPlacement(t *testing.T) {
	db := sampleDB()
	loads := db.ProcLoads()
	if loads[0] != 2.0 || loads[1] != 2.5 {
		t.Errorf("loads = %v", loads)
	}
	pl := db.Placement()
	if pl[0] != 0 || pl[1] != 1 || pl[2] != 0 {
		t.Errorf("placement = %v", pl)
	}
}

func TestGobRoundTrip(t *testing.T) {
	db := sampleDB()
	var buf bytes.Buffer
	if err := db.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Step != db.Step || len(got.Chares) != 3 || len(got.Comms) != 2 {
		t.Errorf("round trip mismatch: %+v", got)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	db := sampleDB()
	var buf bytes.Buffer
	if err := db.DumpJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumProcs != 2 || got.Chares[1].Load != 2.5 {
		t.Errorf("round trip mismatch: %+v", got)
	}
}

func TestReadRejectsInvalidDump(t *testing.T) {
	bad := sampleDB()
	bad.Chares[0].Proc = 0
	var buf bytes.Buffer
	if err := bad.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	// Corrupt: truncate.
	if _, err := Read(bytes.NewReader(buf.Bytes()[:10])); err == nil {
		t.Error("want error for truncated dump")
	}
	if _, err := Read(bytes.NewReader(nil)); err == nil {
		t.Error("want error for empty dump")
	}
}

func TestDumpRefusesInvalidDatabase(t *testing.T) {
	db := sampleDB()
	db.NumProcs = 0
	var buf bytes.Buffer
	if err := db.Dump(&buf); err == nil {
		t.Error("want error dumping invalid database")
	}
}
