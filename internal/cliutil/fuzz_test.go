package cliutil

import (
	"slices"
	"testing"

	"repro/internal/topology"
)

// FuzzParseTopology: arbitrary specs must parse or error, never panic.
func FuzzParseTopology(f *testing.F) {
	for _, seed := range []string{"torus:4,4", "mesh:2,3,4", "hypercube:5",
		"fattree:4,2", "torus:", "torus:0", ":", "x:y", "torus:1000000000,9",
		"hypercube:30", "torus:32768,32768", "mesh:2049,2048", "fattree:64,4",
		"hier:pod:4096/rack:4096", "hier:pod:2:hypercube-30"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		if row, dims, err := findMachine(spec); err == nil {
			if n := row.Nodes(dims); n > 1<<16 && n <= topology.MaxNodes {
				return // hypercube:22 lays out for seconds and 800 MB: slow, not wrong
			}
		}
		tp, err := ParseAnyTopology(spec)
		if err == nil && tp == nil {
			t.Fatal("nil topology without error")
		}
		if err == nil && tp.Nodes() > topology.MaxNodes {
			t.Fatalf("%q built %d processors, cap is %d", spec, tp.Nodes(), topology.MaxNodes)
		}
	})
}

// FuzzParsePattern: arbitrary specs must build or error, never panic —
// the generators panic outside their bounds, so every bound is the
// table's to check first. Sizes are capped so valid fuzz inputs cannot
// allocate unboundedly.
func FuzzParsePattern(f *testing.F) {
	for _, seed := range []string{"mesh2d:4,4", "ring:9", "leanmd:2",
		"random:10,20", "mesh2d:-1,4", "butterfly:3", "bogus:1",
		"ring:2", "torus2d:2,2", "alltoall:1", "transpose:1", "butterfly:21",
		"random:2,5", "rgg:1,4"} {
		f.Add(seed, 100.0)
	}
	f.Add("mesh2d:4,4", -5.0)
	f.Fuzz(func(t *testing.T, spec string, msg float64) {
		if _, args, err := findPattern(spec); err == nil && slices.Max(args) > 12 {
			return // built only to be thrown away: slow, not wrong
		}
		g, err := ParsePattern(spec, msg, 1)
		if err == nil && g == nil {
			t.Fatal("nil graph without error")
		}
		if coords := PatternCoords(spec, 1); err == nil && coords != nil && len(coords) != g.NumVertices() {
			t.Fatalf("%q: %d coordinate rows for %d tasks", spec, len(coords), g.NumVertices())
		}
	})
}
