package lint_test

import (
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/lint"
)

// TestLoadDirGenerics pins the loader's behavior on the generics-heavy
// real internal/parallel package — the call-graph analyzers depend on
// instantiated generic calls resolving to their origin objects.
func TestLoadDirGenerics(t *testing.T) {
	pkg, err := lint.LoadDir(filepath.Join("..", "parallel"), "repro/internal/parallel")
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	if pkg == nil {
		t.Fatal("no package loaded")
	}
	for _, terr := range pkg.TypeErrors {
		t.Errorf("type error in generics package: %v", terr)
	}
	for _, name := range []string{"For", "Reduce", "Map"} {
		obj := pkg.Types.Scope().Lookup(name)
		if obj == nil {
			t.Fatalf("kernel %s not found in package scope", name)
		}
		if _, ok := obj.(*types.Func); !ok {
			t.Fatalf("kernel %s is a %T, want *types.Func", name, obj)
		}
	}
	// The generic kernels must expose their type parameters, proving the
	// loader type-checked them as generics rather than degrading.
	for _, name := range []string{"Reduce", "Map"} {
		fn := pkg.Types.Scope().Lookup(name).(*types.Func)
		sig := fn.Type().(*types.Signature)
		if sig.TypeParams().Len() == 0 {
			t.Errorf("kernel %s lost its type parameters in loading", name)
		}
	}
}

// TestLoadDirBuildTags pins constraint handling: files excluded by a
// //go:build line or a GOOS filename suffix must not reach the type
// checker. The excluded files redeclare grain() with a conflicting
// signature, so any leakage shows up as duplicate-declaration errors.
func TestLoadDirBuildTags(t *testing.T) {
	otherOS := "linux"
	if runtime.GOOS == "linux" {
		otherOS = "windows"
	}
	dir := t.TempDir()
	write := func(name, src string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("base.go", "package tagged\n\nfunc grain() int { return 64 }\n")
	write("gated_on.go", "//go:build "+runtime.GOOS+"\n\npackage tagged\n\nfunc hostGrain() int { return grain() }\n")
	write("gated_off.go", "//go:build never_set_tag\n\npackage tagged\n\nfunc grain() string { return \"conflict\" }\n")
	write("only_"+otherOS+".go", "package tagged\n\nfunc grain() float64 { return 0 }\n")

	pkg, err := lint.LoadDir(dir, "repro/internal/tagged")
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	for _, terr := range pkg.TypeErrors {
		t.Errorf("excluded file leaked into the build: %v", terr)
	}
	if got := len(pkg.Files); got != 2 {
		t.Errorf("loaded %d files, want 2 (base.go and gated_on.go)", got)
	}
	if pkg.Types.Scope().Lookup("hostGrain") == nil {
		t.Error("host-tagged file was not loaded")
	}
}
