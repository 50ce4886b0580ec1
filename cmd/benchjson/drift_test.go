package main

// The static zero-alloc contract (//lint:hotpath annotations checked by
// topolint's hotalloc analyzer) and the dynamic one (testing.AllocsPerRun
// tests beside each hot path, run by `go test ./...`) describe the same
// hot paths. These tests fail when either side drifts: an annotation added
// or removed without revisiting its guard, or a guard that no longer
// exists.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/benchtab"
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

// testFuncs returns the names of the top-level functions in one package
// directory's _test.go files.
func testFuncs(t *testing.T, dir string) map[string]bool {
	t.Helper()
	onlyTests := func(fi fs.FileInfo) bool { return strings.HasSuffix(fi.Name(), "_test.go") }
	pkgs, err := parser.ParseDir(token.NewFileSet(), dir, onlyTests, 0)
	if err != nil {
		t.Fatalf("parse %s: %v", dir, err)
	}
	names := map[string]bool{}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil {
					names[fd.Name.Name] = true
				}
			}
		}
	}
	return names
}

// TestHotpathAnnotationsMatchBenchCases pins, per package, the annotated
// root set and the go test functions that are its dynamic guard. If a
// //lint:hotpath annotation is added or removed, or a guard is renamed
// away, this test forces the author to revisit the other side so the
// dynamic guard keeps measuring what the static analyzer promises.
func TestHotpathAnnotationsMatchBenchCases(t *testing.T) {
	want := []struct {
		pkg    string
		roots  []string
		guards []string
	}{
		// The propose sweep may allocate only the parallel.For closure; a
		// clean-state remap step only RefineIncremental's per-call scratch;
		// the label-cut pass only its candidate lists and one closure per
		// sweep, never per task.
		{"core",
			[]string{"(*incRefiner).moveScore", "(*incRefiner).swapScore", "(*incRefiner).sweepTask",
				"(*mlRefiner).markCandidates", "(*mlRefiner).propose", "(*mlRefiner).proposeCut"},
			[]string{"TestMultilevelProposeZeroAlloc", "TestSessionBatchAllocs", "TestLabelCutAllocsPerCall"}},
		// Steady state in packet, buffered and wormhole mode allocates 0.
		{"netsim", []string{"(*Engine).Run"}, []string{"TestZeroAllocSteadyState", "TestWormholeZeroAllocSteadyState"}},
		// Inline the three allocate at most Map's closure and result;
		// forked, a constant that does not grow with the chunk count.
		{"parallel", []string{"For", "Map", "Reduce"}, []string{"TestKernelAllocs"}},
		{"sfc",
			[]string{"HilbertDecode2", "HilbertDecode3", "HilbertEncode2", "HilbertEncode3",
				"MortonDecode2", "MortonDecode3", "MortonEncode2", "MortonEncode3"},
			[]string{"TestCodecsZeroAlloc"}},
	}
	for _, w := range want {
		dir := filepath.Join("..", "..", "internal", w.pkg)
		if got := hotpathRoots(t, dir); strings.Join(got, ",") != strings.Join(w.roots, ",") {
			t.Errorf("%s: //lint:hotpath roots = %v, want %v\n"+
				"annotations drifted: make the package's allocation test cover the new set, then update this list",
				w.pkg, got, w.roots)
		}
		tests := testFuncs(t, dir)
		for _, guard := range w.guards {
			if !tests[guard] {
				t.Errorf("%s: allocation guard %s no longer exists; its //lint:hotpath roots have no dynamic check", w.pkg, guard)
			}
		}
	}
}

// TestTieFreeStreamOnRecord keeps the run queue's worst case — a stream
// with no two events at one time, where every event costs a heap key —
// on record, shallow and deep.
func TestTieFreeStreamOnRecord(t *testing.T) {
	for _, want := range []string{"Engine/tiefree/pending=1024", "Engine/tiefree/pending=16384"} {
		found := false
		for _, r := range benchtab.Select(benchtab.Rows(), "netsim", false) {
			found = found || r.Name == want
		}
		if !found {
			t.Errorf("the netsim suite has no %s row", want)
		}
	}
}
