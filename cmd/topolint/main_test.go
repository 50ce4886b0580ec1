package main_test

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// topolintBin is built once by TestMain.
var topolintBin string

func TestMain(m *testing.M) {
	tmp, err := os.MkdirTemp("", "topolint-test")
	if err != nil {
		panic(err)
	}
	topolintBin = filepath.Join(tmp, "topolint")
	out, err := exec.Command("go", "build", "-o", topolintBin, ".").CombinedOutput()
	if err != nil {
		panic("build topolint: " + err.Error() + "\n" + string(out))
	}
	code := m.Run()
	_ = os.RemoveAll(tmp) // best-effort temp cleanup on exit
	os.Exit(code)
}

// runTopolint executes the binary in dir and returns stdout, stderr and
// the exit code.
func runTopolint(t *testing.T, dir string, args ...string) (string, string, int) {
	t.Helper()
	cmd := exec.Command(topolintBin, args...)
	cmd.Dir = dir
	var stdout, stderr strings.Builder
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	code := 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("run topolint: %v", err)
	}
	return stdout.String(), stderr.String(), code
}

// writeModule materializes a throwaway module for the CLI to lint.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	files["go.mod"] = "module fixturemod\n\ngo 1.22\n"
	for name, content := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

const cleanFile = `package clean

// Mean averages xs.
func Mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
`

const floatcmpFile = `package dirty

// Equal compares floats exactly.
func Equal(a, b float64) bool { return a == b }
`

const errcheckFile = `package dirty2

import "os"

// Drop discards the error.
func Drop(path string) { os.Remove(path) }
`

func TestCleanModuleExitsZero(t *testing.T) {
	dir := writeModule(t, map[string]string{"clean/clean.go": cleanFile})
	stdout, stderr, code := runTopolint(t, dir, "./...")
	if code != 0 {
		t.Fatalf("exit = %d, want 0; stdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	if stdout != "" {
		t.Errorf("expected no output on a clean tree, got:\n%s", stdout)
	}
}

func TestFindingsExitOne(t *testing.T) {
	dir := writeModule(t, map[string]string{"dirty/dirty.go": floatcmpFile})
	stdout, _, code := runTopolint(t, dir, "./...")
	if code != 1 {
		t.Fatalf("exit = %d, want 1; stdout:\n%s", code, stdout)
	}
	want := "dirty/dirty.go:4:40: [floatcmp]"
	if !strings.Contains(stdout, want) {
		t.Errorf("stdout missing %q:\n%s", want, stdout)
	}
}

func TestJSONOutputShape(t *testing.T) {
	dir := writeModule(t, map[string]string{"dirty/dirty.go": floatcmpFile})
	stdout, _, code := runTopolint(t, dir, "-json", "./...")
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	var diags []struct {
		File     string `json:"file"`
		Line     int    `json:"line"`
		Col      int    `json:"col"`
		Analyzer string `json:"analyzer"`
		Message  string `json:"message"`
	}
	if err := json.Unmarshal([]byte(stdout), &diags); err != nil {
		t.Fatalf("output is not a JSON diagnostic array: %v\n%s", err, stdout)
	}
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want 1: %+v", len(diags), diags)
	}
	d := diags[0]
	if d.File != "dirty/dirty.go" || d.Line != 4 || d.Col == 0 || d.Analyzer != "floatcmp" || d.Message == "" {
		t.Errorf("unexpected diagnostic fields: %+v", d)
	}
}

func TestAnalyzerSelection(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"dirty/dirty.go":   floatcmpFile,
		"dirty2/dirty2.go": errcheckFile,
	})
	stdout, _, code := runTopolint(t, dir, "-analyzers", "errcheck", "./...")
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	if strings.Contains(stdout, "[floatcmp]") {
		t.Errorf("floatcmp ran despite -analyzers errcheck:\n%s", stdout)
	}
	if !strings.Contains(stdout, "[errcheck]") {
		t.Errorf("errcheck did not run:\n%s", stdout)
	}
}

func TestPackagePatternSelection(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"dirty/dirty.go": floatcmpFile,
		"clean/clean.go": cleanFile,
	})
	if _, _, code := runTopolint(t, dir, "./clean"); code != 0 {
		t.Errorf("linting only ./clean: exit = %d, want 0", code)
	}
	if _, _, code := runTopolint(t, dir, "./dirty"); code != 1 {
		t.Errorf("linting only ./dirty: exit = %d, want 1", code)
	}
}

func TestUsageErrorsExitTwo(t *testing.T) {
	dir := writeModule(t, map[string]string{"clean/clean.go": cleanFile})
	cases := [][]string{
		{"-analyzers", "nosuchanalyzer", "./..."},
		{"./no/such/dir/..."},
		{"-badflag"},
	}
	for _, args := range cases {
		if _, stderr, code := runTopolint(t, dir, args...); code != 2 {
			t.Errorf("topolint %v: exit = %d, want 2; stderr:\n%s", args, code, stderr)
		}
	}
}

func TestListAnalyzers(t *testing.T) {
	dir := writeModule(t, map[string]string{"clean/clean.go": cleanFile})
	stdout, _, code := runTopolint(t, dir, "-list")
	if code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
	for _, name := range []string{"determinism", "errcheck", "floatcmp", "seededrand",
		"hotalloc", "parallelpurity", "jsoncontract", "leakcheck"} {
		if !strings.Contains(stdout, name) {
			t.Errorf("-list output missing %q:\n%s", name, stdout)
		}
	}
}
