package hiertopo

import (
	"encoding/json"
	"runtime"
	"strings"
	"testing"

	"repro/internal/topology"
)

func mustParse(t *testing.T, spec string) *Hierarchy {
	t.Helper()
	h, err := Parse(spec)
	if err != nil {
		t.Fatalf("Parse(%q): %v", spec, err)
	}
	return h
}

func TestParseReference(t *testing.T) {
	h := mustParse(t, "pod:2/rack:4/node:8:torus-2x4")
	if got := h.Nodes(); got != 2*4*8*8 {
		t.Fatalf("Nodes() = %d, want %d", got, 2*4*8*8)
	}
	if got := h.LeafSize(); got != 8 {
		t.Fatalf("LeafSize() = %d, want 8", got)
	}
	if got := h.NumLevels(); got != 3 {
		t.Fatalf("NumLevels() = %d, want 3", got)
	}
	wantInst := []int{256, 64, 8}
	for i, want := range wantInst {
		if got := h.InstanceSize(i); got != want {
			t.Fatalf("InstanceSize(%d) = %d, want %d", i, got, want)
		}
	}
	wantCost := []float64{1000, 100, 10}
	for i, lv := range h.Levels() {
		if lv.Cost != wantCost[i] {
			t.Fatalf("level %d cost = %g, want %g", i, lv.Cost, wantCost[i])
		}
	}
	if h.LevelIndex("rack") != 1 || h.LevelIndex("nope") != -1 {
		t.Fatalf("LevelIndex lookup broken")
	}
}

func TestSpecRoundTrip(t *testing.T) {
	for _, spec := range []string{
		"pod:2/rack:4/node:8:torus-2x4",
		"pod:2/rack:4@250/node:8:torus-2x4",
		"zone:3/host:5",
		"node:8:fattree-2x2",
		"core:16",
	} {
		h := mustParse(t, spec)
		if got := h.Spec(); got != spec {
			t.Fatalf("Spec() = %q, want round-trip of %q", got, spec)
		}
		h2 := mustParse(t, h.Spec())
		if h2.Name() != h.Name() || h2.Nodes() != h.Nodes() {
			t.Fatalf("re-parse of %q changed identity: %q vs %q", spec, h2.Name(), h.Name())
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, spec := range []string{
		"",                            // no segments
		"pod",                         // missing count
		"pod:x",                       // bad count
		"pod:2@abc",                   // bad cost
		"pod:2:torus-2x4/rack:4",      // leaf on outer level
		"pod:2/pod:4",                 // duplicate name
		"Pod:2",                       // uppercase name
		"9pod:2",                      // leading digit
		"pod:0",                       // zero count
		"pod:2@0.5",                   // cost below 1
		"pod:2@nan",                   // cost not a number
		"pod:2@inf",                   // cost not finite
		"pod:2@3e9",                   // cost above math.MaxInt32
		"pod:2@1e300/rack:4@1.5",      // outer cost above math.MaxInt32
		"pod:2@10/rack:4@100",         // cost increasing inward
		"pod:2/rack:4:wheel-3",        // unknown leaf kind
		"pod:2/rack:4:torus",          // leaf without dims
		"a:100/b:100/c:100/d:100",     // 10^8 > maxNodes
		"a:1/b:1/c:1/d:1/e:1/f:1/g:1", // too many levels
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", spec)
		}
	}
	// Distance charges a level's rounded cost as an int32: a cost outside
	// that range is refused by name rather than clamped below its inner
	// levels' costs.
	want := `hiertopo: level "pod" cost 1e+12 out of range [1,2147483647]`
	if _, err := Parse("pod:2@1e12/node:4:mesh-2x2"); err == nil || !strings.HasPrefix(err.Error(), want) {
		t.Errorf("Parse error %v, want prefix %s", err, want)
	}
}

func TestDistanceComposite(t *testing.T) {
	h := mustParse(t, "pod:2/rack:4/node:8:torus-2x4")
	leaf := topology.MustTorus(2, 4)
	// Same leaf: exact leaf distance, at both a base leaf and an offset one.
	for _, base := range []int{0, 8 * 37} {
		for a := 0; a < 8; a++ {
			for b := 0; b < 8; b++ {
				if got, want := h.Distance(base+a, base+b), leaf.Distance(a, b); got != want {
					t.Fatalf("intra-leaf Distance(%d,%d) = %d, want %d", base+a, base+b, got, want)
				}
			}
		}
	}
	// Crossing levels: node boundary 10, rack 100, pod 1000.
	if got := h.Distance(0, 8); got != 10 {
		t.Fatalf("cross-node distance = %d, want 10", got)
	}
	if got := h.Distance(0, 64); got != 100 {
		t.Fatalf("cross-rack distance = %d, want 100", got)
	}
	if got := h.Distance(0, 256); got != 1000 {
		t.Fatalf("cross-pod distance = %d, want 1000", got)
	}
	// Symmetry holds.
	for _, pair := range [][2]int{{0, 3}, {0, 8}, {5, 70}, {100, 300}, {511, 0}} {
		a, b := pair[0], pair[1]
		if h.Distance(a, b) != h.Distance(b, a) {
			t.Fatalf("Distance not symmetric at (%d,%d)", a, b)
		}
	}
	if h.Distance(42, 42) != 0 {
		t.Fatalf("Distance(a,a) != 0")
	}
}

func TestDivergeLevel(t *testing.T) {
	h := mustParse(t, "pod:2/rack:4/node:8:torus-2x4")
	cases := []struct{ a, b, want int }{
		{0, 7, -1}, {0, 8, 2}, {0, 63, 2}, {0, 64, 1}, {0, 255, 1}, {0, 256, 0}, {511, 0, 0},
	}
	for _, c := range cases {
		if got := h.DivergeLevel(c.a, c.b); got != c.want {
			t.Fatalf("DivergeLevel(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestDistanceMatrixAgrees(t *testing.T) {
	h := mustParse(t, "pod:2/rack:2/node:4:mesh-2x2")
	dm := topology.NewDistanceMatrix(h)
	for a := 0; a < h.Nodes(); a++ {
		for b := 0; b < h.Nodes(); b++ {
			if int(dm.Row(a)[b]) != h.Distance(a, b) {
				t.Fatalf("matrix disagrees at (%d,%d)", a, b)
			}
		}
	}
}

func TestNeighbors(t *testing.T) {
	h := mustParse(t, "pod:2/rack:4/node:8:torus-2x4")
	leaf := topology.MustTorus(2, 4)
	base := 8 * 5
	for a := 0; a < 8; a++ {
		got := h.Neighbors(base + a)
		want := leaf.Neighbors(a)
		if len(got) != len(want) {
			t.Fatalf("Neighbors(%d) has %d entries, want %d", base+a, len(got), len(want))
		}
		for i, q := range want {
			if got[i] != base+q {
				t.Fatalf("Neighbors(%d)[%d] = %d, want %d", base+a, i, got[i], base+q)
			}
		}
	}
	// Unit leaves: siblings within the innermost group.
	u := mustParse(t, "rack:2/node:4")
	nb := u.Neighbors(5)
	want := []int{4, 6, 7}
	if len(nb) != len(want) {
		t.Fatalf("unit-leaf Neighbors(5) = %v, want %v", nb, want)
	}
	for i := range want {
		if nb[i] != want[i] {
			t.Fatalf("unit-leaf Neighbors(5) = %v, want %v", nb, want)
		}
	}
}

func TestSubtreePrefixIdentity(t *testing.T) {
	h := mustParse(t, "pod:2/rack:4@250/node:8:torus-2x4")
	for lvl := 0; lvl < h.NumLevels(); lvl++ {
		sub, err := h.Subtree(lvl)
		if err != nil {
			t.Fatalf("Subtree(%d): %v", lvl, err)
		}
		if sub.Nodes() != h.InstanceSize(lvl) {
			t.Fatalf("Subtree(%d) has %d nodes, want %d", lvl, sub.Nodes(), h.InstanceSize(lvl))
		}
		for a := 0; a < sub.Nodes(); a++ {
			for b := 0; b < sub.Nodes(); b++ {
				if sub.Distance(a, b) != h.Distance(a, b) {
					t.Fatalf("Subtree(%d) distance (%d,%d) = %d, parent %d",
						lvl, a, b, sub.Distance(a, b), h.Distance(a, b))
				}
			}
		}
	}
	if _, err := h.Subtree(3); err == nil {
		t.Fatalf("Subtree(3) succeeded, want range error")
	}
}

func TestBandwidthDerivedCost(t *testing.T) {
	h, err := New([]Level{
		{Name: "pod", Count: 2, Bandwidth: 0.001},
		{Name: "rack", Count: 2, Bandwidth: 0.02},
	}, "")
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	lv := h.Levels()
	if lv[0].Cost != 1000 || lv[1].Cost != 50 {
		t.Fatalf("bandwidth-derived costs = %g, %g; want 1000, 50", lv[0].Cost, lv[1].Cost)
	}
	if got := h.Distance(0, 1); got != 50 {
		t.Fatalf("cross-rack distance = %d, want 50", got)
	}
}

func TestJSONSpecBuild(t *testing.T) {
	raw := `{"levels":[{"name":"pod","count":2},{"name":"rack","count":4},
		{"name":"node","count":8,"latency":1e-6}],"leaf":"torus-2x4"}`
	var s Spec
	if err := json.Unmarshal([]byte(raw), &s); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	h, err := s.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	want := mustParse(t, "pod:2/rack:4/node:8:torus-2x4")
	if h.Name() != want.Name() {
		t.Fatalf("JSON build = %q, want %q", h.Name(), want.Name())
	}
	if h.Levels()[2].Latency != 1e-6 {
		t.Fatalf("latency annotation lost")
	}
}

// TestSpecCanonicalMatchesBuild pins the textual canonicalizer to the
// constructor: wherever Build succeeds Canonical returns Build().Spec()
// and LevelNames reads the same names, textual defects fail both with the
// same message, and what only construction can reject passes Canonical
// and is reported by Parse of its result.
func TestSpecCanonicalMatchesBuild(t *testing.T) {
	valid := []Spec{
		{Levels: []LevelSpec{{Name: "pod", Count: 2}, {Name: "rack", Count: 4}, {Name: "node", Count: 8}}, Leaf: "torus-2x4"},
		{Levels: []LevelSpec{{Name: " Pod ", Count: 2, Cost: 1000}, {Name: "RACK", Count: 4, Cost: 250}}, Leaf: " Mesh-4 "},
		{Levels: []LevelSpec{{Name: "pod", Count: 2, Bandwidth: 0.001}, {Name: "rack", Count: 2, Bandwidth: 0.02, Latency: 1e-6}}},
		{Levels: []LevelSpec{{Name: "n0", Count: 3}}, Leaf: "hypercube-3"},
		{Levels: []LevelSpec{{Name: "a", Count: 1}, {Name: "b", Count: 1}}, Leaf: "fattree-2x3"},
	}
	for _, s := range valid {
		h, err := s.Build()
		if err != nil {
			t.Fatalf("Build(%+v): %v", s, err)
		}
		got, err := s.Canonical()
		if err != nil || got != h.Spec() {
			t.Errorf("Canonical(%+v) = %q, %v; want %q", s, got, err, h.Spec())
		}
		names := LevelNames(got)
		if len(names) != h.NumLevels() {
			t.Fatalf("LevelNames(%q) = %v, want %d names", got, names, h.NumLevels())
		}
		for i, name := range names {
			if h.LevelIndex(name) != i {
				t.Errorf("LevelNames(%q)[%d] = %q, which is level %d", got, i, name, h.LevelIndex(name))
			}
		}
	}

	textual := []Spec{
		{},
		{Levels: []LevelSpec{{Name: "Pod!", Count: 2}}},
		{Levels: []LevelSpec{{Name: "pod", Count: 0}}},
		{Levels: []LevelSpec{{Name: "pod", Count: 2, Cost: 0.5}}},
		{Levels: []LevelSpec{{Name: "pod", Count: 2, Cost: 3e9}}},
		{Levels: []LevelSpec{{Name: "pod", Count: 2, Bandwidth: 1e-300}, {Name: "rack", Count: 2}}},
		{Levels: []LevelSpec{{Name: "pod", Count: 2}, {Name: "pod", Count: 2}}},
		{Levels: []LevelSpec{{Name: "pod", Count: 2, Cost: 10}, {Name: "rack", Count: 2, Cost: 20}}},
		{Levels: []LevelSpec{{Name: "pod", Count: 2}}, Leaf: "torus2x4"},
		{Levels: []LevelSpec{{Name: "pod", Count: 2}}, Leaf: "torus-2xq"},
		{Levels: []LevelSpec{{Name: "pod", Count: 2}}, Leaf: "ring-8"},
		{Levels: []LevelSpec{{Name: "pod", Count: 2}}, Leaf: "hypercube-2x2"},
		{Levels: []LevelSpec{{Name: "pod", Count: 2}}, Leaf: "torus-2x2/evil:2"},
	}
	for _, s := range textual {
		_, berr := s.Build()
		_, cerr := s.Canonical()
		if berr == nil || cerr == nil || berr.Error() != cerr.Error() {
			t.Errorf("%+v: Build error %v, Canonical error %v; want the same error", s, berr, cerr)
		}
	}

	deferred := []Spec{
		{Levels: []LevelSpec{{Name: "pod", Count: 2}}, Leaf: "torus-0x4"},
		{Levels: []LevelSpec{{Name: "pod", Count: 2}}, Leaf: "mesh-128x128"},
		{Levels: []LevelSpec{{Name: "pod", Count: 4096}, {Name: "rack", Count: 1024}}, Leaf: "mesh-8"},
	}
	for _, s := range deferred {
		_, berr := s.Build()
		spec, cerr := s.Canonical()
		if berr == nil || cerr != nil {
			t.Fatalf("%+v: Build error %v, Canonical error %v; want only Build to fail", s, berr, cerr)
		}
		if _, perr := Parse(spec); perr == nil || perr.Error() != berr.Error() {
			t.Errorf("Parse(%q) error %v, want Build's %v", spec, perr, berr)
		}
	}
}

// TestOverLimitLeafRejectedBeforeItIsBuilt: topomapd parses a hierarchy
// on the request goroutine before admission, so a leaf over the 4 096
// limit must be refused from its dimensions — building hypercube-20 to
// count its processors took 0.78 s and 185 MB.
func TestOverLimitLeafRejectedBeforeItIsBuilt(t *testing.T) {
	for spec, want := range map[string]string{
		"pod:2:hypercube-20":   `hiertopo: leaf "hypercube-20" has 1048576 processors, limit 4096`,
		"pod:2:torus-64x64x16": `hiertopo: leaf "torus-64x64x16" has 65536 processors, limit 4096`,
		"pod:2:fattree-16x5":   `hiertopo: leaf "fattree-16x5" has 1048576 processors, limit 4096`,
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Parse(spec)
		runtime.ReadMemStats(&after)
		if err == nil || err.Error() != want {
			t.Errorf("Parse(%q) error %v, want %s", spec, err, want)
		}
		if kb := (after.TotalAlloc - before.TotalAlloc) >> 10; kb >= 64 {
			t.Errorf("Parse(%q) allocated %d KB to refuse the leaf, want < 64", spec, kb)
		}
	}
	for _, spec := range []string{"pod:2:hypercube-12", "pod:2:torus-16x16x16", "pod:2:fattree-8x4", "pod:2:mesh-4096"} {
		if h := mustParse(t, spec); h.Nodes() != 2*4096 {
			t.Errorf("Parse(%q) has %d processors, want %d", spec, h.Nodes(), 2*4096)
		}
	}
	// Shapes their constructor rejects keep its message, whatever the
	// product of their extents comes to.
	for spec, want := range map[string]string{
		"pod:2:mesh--100x-100":     `hiertopo: leaf "mesh--100x-100": topology: shape dimensions must all be >= 1`,
		"pod:2:hypercube-30":       `hiertopo: leaf "hypercube-30": topology: hypercube dimension 30 out of range [0,22]`,
		"pod:2:fattree-1x99999999": `hiertopo: leaf "fattree-1x99999999": topology: fat-tree arity 1 out of range [2,64]`,
	} {
		if _, err := Parse(spec); err == nil || err.Error() != want {
			t.Errorf("Parse(%q) error %v, want %s", spec, err, want)
		}
	}
}
