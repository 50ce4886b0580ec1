package main

// The static zero-alloc contract (//lint:hotpath annotations checked by
// topolint's hotalloc analyzer) and the dynamic one (zeroAllocPrefixes
// enforced by the netsim suite) describe the same hot paths. This test
// fails when either side drifts: an annotation added or removed without
// updating the bench case list, or a zero-alloc family with no case that
// actually measures it.

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// hotpathRoots parses one package directory and returns the names of
// functions whose doc comment carries a //lint:hotpath annotation;
// methods are rendered "(*Recv).Name".
func hotpathRoots(t *testing.T, dir string) []string {
	t.Helper()
	fset := token.NewFileSet()
	noTests := func(fi fs.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") }
	pkgs, err := parser.ParseDir(fset, dir, noTests, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse %s: %v", dir, err)
	}
	var roots []string
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Doc == nil {
					continue
				}
				for _, c := range fd.Doc.List {
					if !strings.HasPrefix(c.Text, "//lint:hotpath") {
						continue
					}
					name := fd.Name.Name
					if fd.Recv != nil && len(fd.Recv.List) == 1 {
						name = "(" + recvString(fd.Recv.List[0].Type) + ")." + name
					}
					roots = append(roots, name)
					break
				}
			}
		}
	}
	sort.Strings(roots)
	return roots
}

func recvString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return "*" + recvString(e.X)
	case *ast.Ident:
		return e.Name
	case *ast.IndexExpr:
		return recvString(e.X)
	case *ast.IndexListExpr:
		return recvString(e.X)
	}
	return "?"
}

// TestHotpathAnnotationsMatchBenchCases pins the annotated root set. If a
// //lint:hotpath annotation is added or removed, this test forces the
// author to revisit zeroAllocPrefixes and the bench case lists so the
// dynamic guard keeps measuring what the static analyzer promises.
func TestHotpathAnnotationsMatchBenchCases(t *testing.T) {
	want := map[string][]string{
		// core's dynamic guards are TestMultilevelProposeZeroAlloc (the
		// propose sweep may allocate only the parallel.For closure) and
		// TestSessionBatchAllocs (a clean-state remap step allocates only
		// RefineIncremental's per-call scratch).
		filepath.Join("..", "..", "internal", "core"): {
			"(*incRefiner).moveScore", "(*incRefiner).swapScore", "(*incRefiner).sweepTask", "(*mlRefiner).propose",
		},
		filepath.Join("..", "..", "internal", "netsim"): {"(*Engine).Run"},
		filepath.Join("..", "..", "internal", "parallel"): {
			"ArgMax", "ArgMin", "For", "Map", "Reduce",
		},
		// sfc's dynamic guard is the geometric suite's encode/ zero-alloc
		// gate (geometricZeroAllocViolations), active in every run mode.
		filepath.Join("..", "..", "internal", "sfc"): {
			"HilbertDecode2", "HilbertDecode3", "HilbertEncode2", "HilbertEncode3",
			"MortonDecode2", "MortonDecode3", "MortonEncode2", "MortonEncode3",
		},
	}
	for dir, expect := range want {
		got := hotpathRoots(t, dir)
		if strings.Join(got, ",") != strings.Join(expect, ",") {
			t.Errorf("%s: //lint:hotpath roots = %v, want %v\n"+
				"annotations drifted: update zeroAllocPrefixes and the netsim bench cases to match, then this list",
				dir, got, expect)
		}
	}
}

// TestZeroAllocPrefixesCovered checks every zero-alloc family has at
// least one case in the full, quick, and smoke case lists, so no CI or
// recording mode can silently stop measuring a family.
func TestZeroAllocPrefixesCovered(t *testing.T) {
	lists := map[string][]netsimCase{
		"full":  netsimCases(false),
		"quick": netsimCases(true),
		"smoke": smokeNetsimCases(),
	}
	for listName, cs := range lists {
		for _, prefix := range zeroAllocPrefixes {
			found := false
			for _, c := range cs {
				if strings.HasPrefix(c.name, prefix) {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("%s case list has no %q case; the zero-alloc guard cannot cover that family", listName, prefix)
			}
		}
	}
}

// TestGeometricEncodeGateCovered checks the geometric suite always
// carries encode/ rows (they are unconditional, including smoke) and the
// gate actually trips on an allocating encode row.
func TestGeometricEncodeGateCovered(t *testing.T) {
	found := false
	for _, c := range encodeCases() {
		if strings.HasPrefix(c.name, "encode/") {
			found = true
			break
		}
	}
	if !found {
		t.Error("geometric suite has no encode/ case; the curve zero-alloc gate covers nothing")
	}
	got := geometricZeroAllocViolations([]Result{
		{Name: "encode/hilbert2", Mode: "optimized", AllocsPerOp: 0},
		{Name: "encode/morton2", Mode: "optimized", AllocsPerOp: 3},
		{Name: "sfc/stencil9:64,64/torus:16,16", Mode: "optimized", AllocsPerOp: 99},
	})
	if len(got) != 1 || !strings.Contains(got[0], "encode/morton2") {
		t.Errorf("geometricZeroAllocViolations = %v, want exactly the encode/morton2 violation", got)
	}
}

// TestTieFreeStreamOnRecord keeps the run queue's worst case — a stream
// with no two events at one time, where every event costs a heap key —
// in every recording, shallow and deep.
func TestTieFreeStreamOnRecord(t *testing.T) {
	for listName, cs := range map[string][]netsimCase{"full": netsimCases(false), "quick": netsimCases(true)} {
		for _, want := range []string{"Engine/tiefree/pending=1024", "Engine/tiefree/pending=16384"} {
			found := false
			for _, c := range cs {
				found = found || c.name == want
			}
			if !found {
				t.Errorf("%s case list has no %s case", listName, want)
			}
		}
	}
}

// TestKeepOptimizedAsParent: the replaced recording's optimized rows come
// back as "parent" rows between this run's baseline and optimized rows,
// and its own baseline and parent rows are dropped.
func TestKeepOptimizedAsParent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "old.json")
	old := Report{Results: []Result{
		{Name: "Engine/dense", Mode: "baseline", NsPerOp: 9},
		{Name: "Engine/dense", Mode: "parent", NsPerOp: 7},
		{Name: "Engine/dense", Mode: "optimized", NsPerOp: 5},
	}}
	buf, err := json.Marshal(old)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	got := keepOptimizedAsParent(path, []Result{
		{Name: "Engine/dense", Mode: "baseline", NsPerOp: 8},
		{Name: "Engine/dense", Mode: "optimized", NsPerOp: 3},
	})
	var modes []string
	for _, r := range got {
		modes = append(modes, fmt.Sprintf("%s:%v", r.Mode, r.NsPerOp))
	}
	if want := "baseline:8,parent:5,optimized:3"; strings.Join(modes, ",") != want {
		t.Errorf("keepOptimizedAsParent rows = %v, want %s", modes, want)
	}
}

// TestZeroAllocViolations exercises the guard logic itself: only
// optimized rows in a zero-alloc family trip it.
func TestZeroAllocViolations(t *testing.T) {
	results := []Result{
		{Name: "Engine/dense", Mode: "optimized", AllocsPerOp: 160},  // excluded family
		{Name: "Hotspot/load=4", Mode: "baseline", AllocsPerOp: 12},  // baseline side is exempt
		{Name: "Hotspot/load=4", Mode: "optimized", AllocsPerOp: 0},  // clean
		{Name: "Wormhole/load=4", Mode: "optimized", AllocsPerOp: 2}, // violation
	}
	got := zeroAllocViolations(results)
	if len(got) != 1 || !strings.Contains(got[0], "Wormhole/load=4: 2 allocs/op") {
		t.Errorf("zeroAllocViolations = %v, want exactly the Wormhole/load=4 violation", got)
	}
}
