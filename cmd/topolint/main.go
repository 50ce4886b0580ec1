// Command topolint runs the repository's static-analysis suite
// (internal/lint) over the module containing the working directory.
//
// Usage:
//
//	topolint [-json] [-analyzers name,name] [-list] [patterns ...]
//
// Patterns select packages: "./..." (everything, the default), a
// relative directory like ./internal/core, a "./dir/..." subtree, or
// a full import path. Exit status is 0 when the tree is clean, 1 when
// any diagnostic is reported, and 2 on usage or load errors. The
// repository is held to zero findings, so the exit status is the gate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// jsonDiag is the -json wire form of one diagnostic.
type jsonDiag struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func run(args []string) int {
	fs := flag.NewFlagSet("topolint", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	jsonOut := fs.Bool("json", false, "emit diagnostics as a JSON array")
	names := fs.String("analyzers", "", "comma-separated analyzers to run (default: all)")
	list := fs.Bool("list", false, "list registered analyzers and exit")
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: topolint [-json] [-analyzers name,name] [-list] [patterns ...]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Fprintf(os.Stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	analyzers := lint.Analyzers()
	if *names != "" {
		analyzers = analyzers[:0]
		for _, name := range strings.Split(*names, ",") {
			name = strings.TrimSpace(name)
			a := lint.Lookup(name)
			if a == nil {
				fmt.Fprintf(os.Stderr, "topolint: unknown analyzer %q (try -list)\n", name)
				return 2
			}
			analyzers = append(analyzers, a)
		}
	}

	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "topolint: %v\n", err)
		return 2
	}
	mod, err := lint.LoadModule(wd)
	if err != nil {
		fmt.Fprintf(os.Stderr, "topolint: %v\n", err)
		return 2
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := selectPackages(mod, wd, patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "topolint: %v\n", err)
		return 2
	}

	diags := lint.Run(pkgs, analyzers)
	if *jsonOut {
		out := make([]jsonDiag, len(diags))
		for i, d := range diags {
			out[i] = jsonDiag{
				File:     relPath(mod.Root, d.Pos.Filename),
				Line:     d.Pos.Line,
				Col:      d.Pos.Column,
				Analyzer: d.Analyzer,
				Message:  d.Message,
			}
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(os.Stderr, "topolint: %v\n", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintf(os.Stdout, "%s:%d:%d: [%s] %s\n",
				relPath(mod.Root, d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
		}
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}

// relPath shortens filename relative to the module root for stable,
// readable output.
func relPath(root, filename string) string {
	if rel, err := filepath.Rel(root, filename); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return filename
}

// selectPackages resolves go-tool-style patterns against the loaded
// module. Supported forms: "./..." and "dir/...", plain directories
// ("./internal/core", "internal/core"), import paths, and ".".
func selectPackages(mod *lint.Module, wd string, patterns []string) ([]*lint.Package, error) {
	seen := map[string]bool{}
	var out []*lint.Package
	for _, pat := range patterns {
		matched := false
		for _, pkg := range mod.Pkgs {
			if matchPattern(mod, wd, pat, pkg) && !seen[pkg.Path] {
				seen[pkg.Path] = true
				out = append(out, pkg)
				matched = true
			} else if matchPattern(mod, wd, pat, pkg) {
				matched = true
			}
		}
		if !matched {
			return nil, fmt.Errorf("pattern %q matched no packages", pat)
		}
	}
	return out, nil
}

func matchPattern(mod *lint.Module, wd, pat string, pkg *lint.Package) bool {
	// Normalize the pattern to an import path (possibly with /... suffix).
	subtree := false
	if pat == "..." {
		return true
	}
	if strings.HasSuffix(pat, "/...") {
		subtree = true
		pat = strings.TrimSuffix(pat, "/...")
	}
	var base string
	switch {
	case pat == "." || pat == "./" || strings.HasPrefix(pat, "./") || strings.HasPrefix(pat, "../"):
		abs := filepath.Clean(filepath.Join(wd, pat))
		rel, err := filepath.Rel(mod.Root, abs)
		if err != nil || strings.HasPrefix(rel, "..") {
			return false
		}
		base = mod.Path
		if rel != "." {
			base = mod.Path + "/" + filepath.ToSlash(rel)
		}
	case pat == mod.Path || strings.HasPrefix(pat, mod.Path+"/"):
		base = pat
	default:
		// Bare relative directory like "internal/core".
		base = mod.Path + "/" + strings.TrimSuffix(pat, "/")
	}
	if subtree {
		return pkg.Path == base || strings.HasPrefix(pkg.Path, base+"/")
	}
	return pkg.Path == base
}
