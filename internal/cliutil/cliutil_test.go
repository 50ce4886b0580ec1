package cliutil

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/taskgraph"
)

func TestParseInts(t *testing.T) {
	got, err := ParseInts("4, 8,16")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 4 || got[1] != 8 || got[2] != 16 {
		t.Errorf("got %v", got)
	}
	if _, err := ParseInts("4,x"); err == nil {
		t.Error("want error for non-integer")
	}
	if _, err := ParseInts(""); err == nil {
		t.Error("want error for empty string")
	}
}

func TestParseTopology(t *testing.T) {
	cases := map[string]struct {
		nodes int
		name  string
	}{
		"torus:4,4":   {16, "torus(4,4)"},
		"mesh:2,3,4":  {24, "mesh(2,3,4)"},
		"hypercube:5": {32, "hypercube(5)"},
	}
	for spec, want := range cases {
		tp, err := ParseTopology(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if tp.Nodes() != want.nodes || tp.Name() != want.name {
			t.Errorf("%s: got %s with %d nodes", spec, tp.Name(), tp.Nodes())
		}
	}
	for _, bad := range []string{"torus", "ring:4", "hypercube:3,3", "fattree:4,2", "torus:0"} {
		if _, err := ParseTopology(bad); err == nil {
			t.Errorf("%s: want error", bad)
		}
	}
}

func TestParseAnyTopologyFatTree(t *testing.T) {
	tp, err := ParseAnyTopology("fattree:4,3")
	if err != nil {
		t.Fatal(err)
	}
	if tp.Nodes() != 64 {
		t.Errorf("nodes = %d", tp.Nodes())
	}
	if _, err := ParseAnyTopology("fattree:4"); err == nil {
		t.Error("want error for one-arg fattree")
	}
	if _, err := ParseAnyTopology("torus:3,3"); err != nil {
		t.Errorf("torus via ParseAnyTopology: %v", err)
	}
}

func TestParsePattern(t *testing.T) {
	cases := map[string]int{
		"mesh2d:4,4":   16,
		"mesh3d:2,3,4": 24,
		"ring:9":       9,
		"torus2d:3,3":  9,
		"alltoall:5":   5,
		"leanmd:4":     3244,
		"random:20,60": 20,
	}
	for spec, n := range cases {
		g, err := ParsePattern(spec, 1000, 1)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if g.NumVertices() != n {
			t.Errorf("%s: %d vertices, want %d", spec, g.NumVertices(), n)
		}
	}
	for _, bad := range []string{"mesh2d:4", "unknown:1", "ring", "mesh3d:1,2"} {
		if _, err := ParsePattern(bad, 1000, 1); err == nil {
			t.Errorf("%s: want error", bad)
		}
	}
}

func TestParseStrategyAll(t *testing.T) {
	for _, r := range StrategyTable() {
		if r.Bind != nil {
			continue // TestParseStrategyHybrid
		}
		s, err := ParseStrategy(r.Name, 1)
		if err != nil {
			t.Fatalf("%s: %v", r.Name, err)
		}
		if s.Name() == "" {
			t.Errorf("%s: empty Name()", r.Name)
		}
	}
	if _, err := ParseStrategy("nope", 1); err == nil {
		t.Error("want error for unknown strategy")
	}
}

func TestParseStrategyHybrid(t *testing.T) {
	s, err := ParseStrategy("hybrid:4x4", 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "Hybrid[4 4]" {
		t.Errorf("Name() = %q", s.Name())
	}
	if _, err := ParseStrategy("hybrid:x", 1); err == nil {
		t.Error("want error for bad hybrid block")
	}
}

func TestParseStrategies(t *testing.T) {
	out, err := ParseStrategies("topolb, random ,topocentlb", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("%d strategies", len(out))
	}
	if _, err := ParseStrategies("topolb,bogus", 1); err == nil {
		t.Error("want error for bogus entry")
	}
}

func TestPatternCoords(t *testing.T) {
	// Grid geometry matches the builders' id = x*ry + y numbering.
	coords := PatternCoords("stencil9:3,5", 1)
	if len(coords) != 15 {
		t.Fatalf("stencil9:3,5 coords = %d rows", len(coords))
	}
	if c := coords[2*5+3]; c[0] != 2 || c[1] != 3 {
		t.Errorf("coords[13] = %v, want [2 3]", c)
	}
	if c := PatternCoords("mesh3d:2,3,4", 1); len(c) != 24 || len(c[23]) != 3 {
		t.Errorf("mesh3d coords shape wrong: %d rows", len(c))
	}
	if c := PatternCoords("ring:7", 1); len(c) != 7 || c[6][0] != 6 {
		t.Errorf("ring coords wrong: %v", c)
	}
	if c := PatternCoords("leanmd:4", 1); len(c) == 0 {
		t.Error("leanmd coords empty")
	}
	// rgg coords reproduce the generator's points for the same seed.
	c := PatternCoords("rgg:100,4", 42)
	want := taskgraph.RandomGeometricCoords(100, 42)
	for i := range c {
		if c[i][0] != want[i][0] || c[i][1] != want[i][1] {
			t.Fatalf("rgg coords diverge from generator at %d", i)
		}
	}
	// Geometry-free patterns and malformed specs return nil.
	for _, spec := range []string{"alltoall:16", "transpose:8", "random:64,128", "bogus", "mesh2d:0,4"} {
		if c := PatternCoords(spec, 1); c != nil {
			t.Errorf("PatternCoords(%q) = %d rows, want nil", spec, len(c))
		}
	}
}

func TestWithCoords(t *testing.T) {
	coords := PatternCoords("mesh2d:4,4", 1)
	if s := WithCoords(core.SFC{}, coords).(core.SFC); len(s.Coords) != 16 {
		t.Error("WithCoords did not inject into SFC")
	}
	if s := WithCoords(core.RCBSFC{}, coords).(core.RCBSFC); len(s.Coords) != 16 {
		t.Error("WithCoords did not inject into RCBSFC")
	}
	if s := WithCoords(core.HierMap{}, coords).(core.HierMap); len(s.Coords) != 16 {
		t.Error("WithCoords did not inject into HierMap")
	}
	r := WithCoords(core.RefineTopoLB{Base: core.SFC{}}, coords).(core.RefineTopoLB)
	if len(r.Base.(core.SFC).Coords) != 16 {
		t.Error("WithCoords did not reach through RefineTopoLB")
	}
	if s := WithCoords(core.TopoLB{}, coords); s.Name() != (core.TopoLB{}).Name() {
		t.Error("WithCoords changed a non-geometric strategy")
	}
	if s := WithCoords(core.SFC{}, nil).(core.SFC); s.Coords != nil {
		t.Error("nil coords must be a no-op")
	}
}

func TestParseAnyTopologyHier(t *testing.T) {
	topo, err := ParseAnyTopology("hier:pod:2/rack:4/node:8:torus-2x4")
	if err != nil {
		t.Fatalf("hier parse: %v", err)
	}
	if topo.Nodes() != 512 {
		t.Fatalf("hier Nodes() = %d, want 512", topo.Nodes())
	}
	if _, err := ParseAnyTopology("hier:pod"); err == nil {
		t.Error("want error for malformed hier spec")
	}
	// Hierarchies do not route: ParseTopology must reject them with a
	// message that points at the routing-capable alternatives.
	if _, err := ParseTopology("hier:pod:2/rack:4"); err == nil ||
		!strings.Contains(err.Error(), "routing") {
		t.Errorf("ParseTopology(hier:...) = %v, want routing rejection", err)
	}
}

func TestUnknownTopologyEnumeratesNames(t *testing.T) {
	// Regression: the unknown-kind error used to say only `unknown
	// topology kind "wheel"`, leaving the caller to guess the vocabulary.
	for _, parse := range []func(string) error{
		func(s string) error { _, err := ParseTopology(s); return err },
		func(s string) error { _, err := ParseAnyTopology(s); return err },
	} {
		err := parse("wheel:3")
		if err == nil {
			t.Fatal("want error for unknown topology kind")
		}
		for _, want := range []string{"torus", "mesh", "hypercube", "fattree", "hier"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("unknown-topology error %q does not mention %q", err, want)
			}
		}
	}
}
