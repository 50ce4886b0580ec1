package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/benchtab"
)

// TestFailingRowExitsOne: a row that fails is an exit 1 naming the first
// such row in table order, and nothing is written — not a recording with
// the row missing.
func TestFailingRowExitsOne(t *testing.T) {
	boom := func(b *testing.B) { b.Fatal("boom") }
	table := []benchtab.Row{
		{Suite: "fake", Name: "first", Smoke: true, Run: boom},
		{Suite: "fake", Name: "second", Smoke: true, Run: boom},
	}
	out := filepath.Join(t.TempDir(), "out.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-suite", "fake", "-smoke", "-out", out}, table, &stdout, &stderr); code != 1 {
		t.Errorf("exit code %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), "fake/first") || strings.Contains(stderr.String(), "second") {
		t.Errorf("stderr %q, want the first failing row and only it", stderr.String())
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Errorf("%s exists after a failed run (stat error %v), want no file", out, err)
	}
	if code := run([]string{"-suite", "nosuch"}, table, &stdout, &stderr); code != 2 {
		t.Errorf("unknown suite: exit code %d, want 2", code)
	}
}

// TestCompareExitCodes drives -compare over written files: a recording
// against itself passes; allocs/op up by two, or an exact column changed,
// exits 1; a median moved inside the recorded spread is not mentioned,
// and one moved beyond it is printed without failing.
func TestCompareExitCodes(t *testing.T) {
	base := []benchtab.Result{
		{Suite: "netsim", Name: "Hotspot/load=4", GOMAXPROCS: 1, NsPerOp: 1000, NsMin: 900, NsMax: 1200, EventsPerOp: 5000},
		{Suite: "netsim", Name: "Hotspot/load=4", Ref: "legacy", GOMAXPROCS: 1, NsPerOp: 9000, NsMin: 8000, NsMax: 9500, AllocsPerOp: 70000},
		{Suite: "multilevel", Name: "stencil", GOMAXPROCS: 2, NsPerOp: 5e6, NsMin: 4e6, NsMax: 6e6, AllocsPerOp: 7, HopBytes: 1.5e9},
	}
	dir := t.TempDir()
	write := func(name string, edit func(rs []benchtab.Result)) string {
		rs := append([]benchtab.Result(nil), base...)
		if edit != nil {
			edit(rs)
		}
		path := filepath.Join(dir, name)
		if err := benchtab.Write(path, "test", rs); err != nil {
			t.Fatal(err)
		}
		return path
	}
	old := write("old.json", nil)
	for _, tc := range []struct {
		name     string
		edit     func(rs []benchtab.Result)
		code     int
		contains string
	}{
		{"itself", nil, 0, "3 results compared: 0 failed, 0 timings moved"},
		{"allocs+2", func(rs []benchtab.Result) { rs[2].AllocsPerOp += 2 }, 1, "FAIL multilevel/stencil procs=2: allocs/op 7 -> 9"},
		{"allocs+1", func(rs []benchtab.Result) { rs[2].AllocsPerOp++ }, 0, "0 failed"},
		{"allocs within a tenth", func(rs []benchtab.Result) { rs[1].AllocsPerOp += 6000 }, 0, "0 failed"},
		{"events changed", func(rs []benchtab.Result) { rs[0].EventsPerOp++ }, 1, "exact columns changed: events/op 5000 -> 5001"},
		{"hop-bytes changed", func(rs []benchtab.Result) { rs[2].HopBytes *= 1.0000001 }, 1, "exact columns changed"},
		{"ns inside spread", func(rs []benchtab.Result) { rs[0].NsPerOp = 1250 }, 0, "0 timings moved"},
		{"ns beyond spread", func(rs []benchtab.Result) { rs[0].NsPerOp = 1400 }, 0, "note netsim/Hotspot/load=4 procs=1: slower"},
		{"nothing in common", func(rs []benchtab.Result) {
			for i := range rs {
				rs[i].GOMAXPROCS = 64
			}
		}, 1, "no result in common"},
	} {
		var stdout, stderr bytes.Buffer
		code := run([]string{"-compare", old, write("new.json", tc.edit)}, nil, &stdout, &stderr)
		if code != tc.code || !strings.Contains(stdout.String(), tc.contains) {
			t.Errorf("%s: exit %d, output %q; want exit %d and %q", tc.name, code, stdout.String()+stderr.String(), tc.code, tc.contains)
		}
	}

	// A file on the schema this one replaced is refused, not half-read.
	legacy := filepath.Join(dir, "legacy.json")
	if err := os.WriteFile(legacy, []byte(`{"command":"x","quick":false,"results":[{"name":"a","mode":"optimized"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-compare", legacy, old}, nil, &stdout, &stderr); code != 1 || !strings.Contains(stderr.String(), "unknown field") {
		t.Errorf("old-schema file: exit %d, stderr %q; want 1 and an unknown-field error", code, stderr.String())
	}
}
