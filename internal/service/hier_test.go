package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/hiertopo"
)

// testHier is the reference machine for the service-level hierarchy
// tests: 2 pods × 2 racks × 4 nodes × mesh-2x2 = 64 processors, with
// rack instances of 16 and node instances of 4.
const testHier = "hier:pod:2/rack:2/node:4:mesh-2x2"

// hierDirectBody computes the expected response body for a constrained
// hier job with direct library calls: parse the hierarchy, narrow to the
// packing subtree, Place with HierMap, and evaluate against the full
// machine — an independent reimplementation of the service path.
func hierDirectBody(t *testing.T, spec Job, packLevel string) []byte {
	t.Helper()
	h, err := hiertopo.Parse(strings.TrimPrefix(spec.Topology, "hier:"))
	if err != nil {
		t.Fatal(err)
	}
	g, err := cliutil.ParsePattern(spec.Graph.Pattern, spec.Graph.MsgBytes, spec.Graph.Seed)
	if err != nil {
		t.Fatal(err)
	}
	target := h
	if packLevel != "" {
		sub, err := h.Subtree(h.LevelIndex(packLevel))
		if err != nil {
			t.Fatal(err)
		}
		target = sub
	}
	// Mirror the service's geometry injection for pattern jobs.
	strat := cliutil.WithCoords(core.HierMap{Seed: spec.Seed},
		cliutil.PatternCoords(spec.Graph.Pattern, spec.Graph.Seed)).(core.HierMap)
	m, err := strat.Place(g, target)
	if err != nil {
		t.Fatal(err)
	}
	res := JobResult{
		Strategy: strat.Name(),
		Topology: h.Name(),
		Graph:    g.Name(),
		Tasks:    g.NumVertices(),
		Mapping:  m,
		HopBytes: core.HopBytes(g, h, m),
	}
	if total := g.TotalComm(); total > 0 {
		res.HopsPerByte = res.HopBytes / total
	}
	for _, c := range spec.Constraints {
		kind := c.Kind
		if kind == "" {
			kind = "required"
		}
		res.Constraints = append(res.Constraints, ConstraintResult{
			Level: c.Level, Kind: kind, Satisfied: true,
		})
	}
	body, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestHierJobEndToEnd pins an unconstrained machine-filling hier job to
// the direct library call.
func TestHierJobEndToEnd(t *testing.T) {
	srv := NewServer(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	spec := Job{Graph: GraphSpec{Pattern: "stencil9:8,8", MsgBytes: 1e5, Seed: 1},
		Topology: testHier, Strategy: "hier", Seed: 1}
	want := hierDirectBody(t, spec, "")
	status, body := postJSON(t, ts.Client(), ts.URL+"/v1/map", spec)
	if status != 200 {
		t.Fatalf("status %d: %s", status, body)
	}
	if !bytes.Equal(body, want) {
		t.Errorf("hier body diverges from library:\n got %s\nwant %s", body, want)
	}
}

// TestHierStructuralSpecSharesKey pins the normalization contract: a
// structural hierarchy submission and its compact hier: spec are the
// same job (same content key, so they share cache entries).
func TestHierStructuralSpecSharesKey(t *testing.T) {
	compact := Job{Graph: GraphSpec{Pattern: "stencil9:8,8", MsgBytes: 1e5, Seed: 1},
		Topology: testHier, Strategy: "hier", Seed: 1}
	structural := Job{Graph: GraphSpec{Pattern: "stencil9:8,8", MsgBytes: 1e5, Seed: 1},
		Hierarchy: &hiertopo.Spec{
			Levels: []hiertopo.LevelSpec{{Name: "pod", Count: 2}, {Name: "rack", Count: 2}, {Name: "node", Count: 4}},
			Leaf:   "mesh-2x2",
		},
		Strategy: "hier", Seed: 1}
	if mustKey(t, compact) != mustKey(t, structural) {
		t.Error("structural and compact hierarchy specs should share a content key")
	}

	both := Job{Graph: GraphSpec{Pattern: "stencil9:8,8"}, Topology: testHier,
		Hierarchy: &hiertopo.Spec{Levels: []hiertopo.LevelSpec{{Name: "pod", Count: 2}}}}
	if _, err := name(both, 0); err == nil {
		t.Error("topology + hierarchy together should be rejected")
	}
}

// TestHierConstraintValidation covers the constraint rejection paths:
// flat machines, unknown levels, bad kinds, and required-infeasible all
// produce typed 400s before any compute happens — as do level costs
// Distance cannot charge, in either hierarchy spelling.
func TestHierConstraintValidation(t *testing.T) {
	srv := NewServer(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cases := []struct {
		name     string
		job      Job
		wantMsg  string
		wantCode int
	}{
		{"flat topology", Job{Graph: GraphSpec{Pattern: "mesh2d:4,4"}, Topology: "torus:4,4",
			Constraints: []Constraint{{Level: "rack"}}},
			"constraints require a hierarchical topology", 400},
		{"unknown level", Job{Graph: GraphSpec{Pattern: "mesh2d:4,4"}, Topology: testHier,
			Constraints: []Constraint{{Level: "cabinet"}}},
			"hierarchy has levels pod, rack, node", 400},
		{"bad kind", Job{Graph: GraphSpec{Pattern: "mesh2d:4,4"}, Topology: testHier,
			Constraints: []Constraint{{Level: "rack", Kind: "mandatory"}}},
			"constraint kind", 400},
		{"required infeasible", Job{Graph: GraphSpec{Pattern: "mesh2d:8,8"}, Topology: testHier,
			Strategy:    "hier",
			Constraints: []Constraint{{Level: "rack", Kind: "required"}}},
			"64 tasks cannot fit one rack (16 processors)", 400},
		{"hier strategy on flat", Job{Graph: GraphSpec{Pattern: "mesh2d:4,4"}, Topology: "torus:4,4",
			Strategy: "hier"},
			"strategy hier requires a hierarchical topology", 400},
		{"compact cost out of range", Job{Graph: GraphSpec{Pattern: "mesh2d:4,4"}, Topology: "hier:pod:2@1e12/node:4:mesh-2x2"},
			`level \"pod\" cost 1e+12 out of range [1,2147483647]`, 400},
		{"JSON cost out of range", Job{Graph: GraphSpec{Pattern: "mesh2d:4,4"},
			Hierarchy: &hiertopo.Spec{Levels: []hiertopo.LevelSpec{{Name: "pod", Count: 2, Cost: 3e9}, {Name: "node", Count: 8}}}},
			`level \"pod\" cost 3e+09 out of range [1,2147483647]`, 400},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, body := postJSON(t, ts.Client(), ts.URL+"/v1/map", tc.job)
			if status != tc.wantCode {
				t.Fatalf("status = %d, want %d: %s", status, tc.wantCode, body)
			}
			if !strings.Contains(string(body), tc.wantMsg) {
				t.Errorf("body %q does not contain %q", body, tc.wantMsg)
			}
		})
	}
}

// TestHierPreferredFallback pins the preferred-infeasible path: the job
// computes on the full machine and the response records the unsatisfied
// constraint with a reason.
func TestHierPreferredFallback(t *testing.T) {
	srv := NewServer(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	spec := Job{Graph: GraphSpec{Pattern: "stencil9:8,8", MsgBytes: 1e5, Seed: 1},
		Topology: testHier, Strategy: "hier", Seed: 1,
		Constraints: []Constraint{{Level: "rack", Kind: "preferred"}}}
	status, body := postJSON(t, ts.Client(), ts.URL+"/v1/map", spec)
	if status != 200 {
		t.Fatalf("status %d: %s", status, body)
	}
	var res JobResult
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Constraints) != 1 {
		t.Fatalf("constraints = %+v, want 1 entry", res.Constraints)
	}
	cr := res.Constraints[0]
	if cr.Level != "rack" || cr.Kind != "preferred" || cr.Satisfied {
		t.Errorf("constraint result = %+v, want unsatisfied preferred rack", cr)
	}
	if !strings.Contains(cr.Reason, "64 tasks exceed one rack") {
		t.Errorf("reason %q should explain the infeasibility", cr.Reason)
	}
	// The fallback mapping is the unconstrained one: same bytes as the
	// job without constraints except for the constraints section.
	if len(res.Mapping) != 64 {
		t.Fatalf("mapping has %d tasks", len(res.Mapping))
	}
}

// TestHierConstraintPacking pins the packing path: a 12-task job
// required to fit one rack lands entirely inside the first rack's rank
// prefix [0,16), on distinct processors, and the response verifies the
// constraint as satisfied.
func TestHierConstraintPacking(t *testing.T) {
	srv := NewServer(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	spec := Job{Graph: GraphSpec{Pattern: "mesh2d:3,4", MsgBytes: 1e5, Seed: 1},
		Topology: testHier, Strategy: "hier", Seed: 1,
		Constraints: []Constraint{{Level: "rack", Kind: "required"}, {Level: "pod", Kind: "preferred"}}}
	status, body := postJSON(t, ts.Client(), ts.URL+"/v1/map", spec)
	if status != 200 {
		t.Fatalf("status %d: %s", status, body)
	}
	var res JobResult
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Mapping) != 12 {
		t.Fatalf("mapping has %d tasks, want 12", len(res.Mapping))
	}
	seen := map[int]bool{}
	for task, p := range res.Mapping {
		if p < 0 || p >= 16 {
			t.Errorf("task %d on processor %d, outside the first rack [0,16)", task, p)
		}
		if seen[p] {
			t.Errorf("processor %d assigned twice", p)
		}
		seen[p] = true
	}
	// Normalized order: pod (level 0) before rack (level 1); both verified
	// satisfied against the actual placement.
	if len(res.Constraints) != 2 {
		t.Fatalf("constraints = %+v, want 2 entries", res.Constraints)
	}
	if res.Constraints[0].Level != "pod" || res.Constraints[1].Level != "rack" {
		t.Errorf("constraint order = %s, %s; want pod, rack (outermost first)",
			res.Constraints[0].Level, res.Constraints[1].Level)
	}
	for _, cr := range res.Constraints {
		if !cr.Satisfied {
			t.Errorf("constraint %+v should be satisfied", cr)
		}
	}

	// A non-packing strategy cannot serve the packed job and fails with
	// guidance instead of a silent wrong answer.
	bad := spec
	bad.Strategy = "topolb"
	status, body = postJSON(t, ts.Client(), ts.URL+"/v1/map", bad)
	if status != 422 || !strings.Contains(string(body), "cannot pack") ||
		!strings.Contains(string(body), "hier") {
		t.Errorf("topolb packed job: status %d body %s, want 422 with hier guidance", status, body)
	}
}

// TestHierConstrainedMatchesLibrary pins the acceptance criterion:
// constrained topomapd responses are byte-identical to direct library
// calls at GOMAXPROCS 1, 2, and 8.
func TestHierConstrainedMatchesLibrary(t *testing.T) {
	spec := Job{Graph: GraphSpec{Pattern: "mesh2d:3,4", MsgBytes: 1e5, Seed: 1},
		Topology: testHier, Strategy: "hier", Seed: 1,
		Constraints: []Constraint{{Level: "rack", Kind: "required"}}}
	want := hierDirectBody(t, spec, "rack")

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, gmp := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(gmp)
		t.Run(fmt.Sprintf("gomaxprocs=%d", gmp), func(t *testing.T) {
			srv := NewServer(Config{})
			defer srv.Close()
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			for rep := 0; rep < 2; rep++ {
				status, body := postJSON(t, ts.Client(), ts.URL+"/v1/map", spec)
				if status != 200 {
					t.Fatalf("status %d: %s", status, body)
				}
				if !bytes.Equal(body, want) {
					t.Fatalf("constrained body diverges from library:\n got %s\nwant %s", body, want)
				}
			}
		})
	}
}

// TestAutoAdmitsHier pins the portfolio on hierarchical machines: the
// hier candidate joins the portfolio, and on a packed (constrained)
// job it is the only candidate that can serve, so it wins.
func TestAutoAdmitsHier(t *testing.T) {
	srv := NewServer(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Machine-filling auto job: all six candidates run.
	full := Job{Graph: GraphSpec{Pattern: "stencil9:8,8", MsgBytes: 1e5, Seed: 1},
		Topology: testHier, Strategy: "auto", Seed: 1}
	status, body := postJSON(t, ts.Client(), ts.URL+"/v1/map", full)
	if status != 200 {
		t.Fatalf("status %d: %s", status, body)
	}
	var res JobResult
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if res.Auto == nil {
		t.Fatal("auto report missing")
	}
	if n := len(res.Auto.Strategies); n != len(wirePortfolio) {
		t.Fatalf("auto portfolio has %d candidates on a hierarchy, want %d", n, len(wirePortfolio))
	}
	last := res.Auto.Strategies[len(wirePortfolio)-1]
	if last.Strategy != "hier" {
		t.Fatalf("last candidate = %s, want hier", last.Strategy)
	}
	if last.Skipped || last.Error != "" {
		t.Errorf("hier candidate did not run: %+v", last)
	}

	// Packed constrained auto job: flat candidates cannot pack, so the
	// portfolio records their errors and hier wins.
	packed := Job{Graph: GraphSpec{Pattern: "mesh2d:3,4", MsgBytes: 1e5, Seed: 1},
		Topology: testHier, Strategy: "auto", Seed: 1,
		Constraints: []Constraint{{Level: "rack"}}}
	status, body = postJSON(t, ts.Client(), ts.URL+"/v1/map", packed)
	if status != 200 {
		t.Fatalf("packed auto: status %d: %s", status, body)
	}
	res = JobResult{}
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if res.Auto == nil || res.Auto.Winner != "hier" {
		t.Fatalf("packed auto winner = %+v, want hier", res.Auto)
	}
	for _, e := range res.Auto.Strategies[:len(wirePortfolio)-1] {
		if !e.Skipped && e.Error == "" {
			t.Errorf("flat candidate %s served a packed job", e.Strategy)
		}
	}
	for task, p := range res.Mapping {
		if p < 0 || p >= 16 {
			t.Errorf("packed auto: task %d on processor %d, outside the first rack", task, p)
		}
	}
}
