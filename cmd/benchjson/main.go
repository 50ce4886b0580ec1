// Command benchjson records and compares the repo's micro-benchmark
// table, internal/benchtab: one row per kernel-level measurement, every
// row measured at GOMAXPROCS 1, 2 and every core, median of three with
// the fastest and slowest beside it, reference implementations measured
// by the same run on the same box. A committed BENCH_<suite>.json holds
// what the run that wrote it measured and nothing else.
//
//	benchjson [-suite all|mapping|netsim|incremental|multilevel|geometric|hier] [-out FILE] [-smoke]
//	benchjson -compare OLD.json... NEW.json
//
// Recording writes BENCH_<suite>.json per suite, or every result to the
// one -out file. -smoke measures the smoke-tier rows once each (a subset
// of the recorded rows, same names and sizes) and writes only to -out.
// Any failing row exits 1 with nothing written.
//
// -compare checks NEW against the OLD recordings on the results both
// hold: exact columns (events/op, hop-bytes) must match and allocs/op
// may not rise by more than one or a tenth, else exit 1; a timing that
// moved by more than both recordings' own spread is printed, not judged.
// Parent against change: regenerate, then
//
//	git show HEAD~:BENCH_netsim.json > /tmp/old.json && benchjson -compare /tmp/old.json BENCH_netsim.json
//
// Allocation ceilings are not this command's: the testing.AllocsPerRun
// tests beside each hot path gate them under `go test ./...`. End-to-end
// and per-layer numbers are bench/cmd/topobench's.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/benchtab"
)

func main() { os.Exit(run(os.Args[1:], benchtab.Rows(), os.Stdout, os.Stderr)) }

func say(w io.Writer, format string, args ...any) {
	//lint:ignore errcheck a failed write to the terminal has nowhere else to be reported
	fmt.Fprintf(w, format, args...)
}

// run is main over a given table; it returns the exit code.
func run(args []string, table []benchtab.Row, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	fs.SetOutput(stderr)
	suite := fs.String("suite", "all", "suite to record: all | mapping | netsim | incremental | multilevel | geometric | hier")
	out := fs.String("out", "", "write every result to this one file (default: BENCH_<suite>.json per suite)")
	smoke := fs.Bool("smoke", false, "smoke-tier rows only, one run each; writes nothing unless -out is set")
	compare := fs.Bool("compare", false, "compare recordings: -compare OLD.json... NEW.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		say(stderr, "benchjson: %v\n", err)
		return 1
	}
	if *compare {
		if fs.NArg() < 2 {
			say(stderr, "benchjson: -compare needs OLD.json... NEW.json\n")
			return 2
		}
		var recordings [2][]benchtab.Result // old (merged), new
		for i, path := range fs.Args() {
			rep, err := benchtab.Read(path)
			if err != nil {
				return fail(err)
			}
			side := i / (fs.NArg() - 1)
			recordings[side] = append(recordings[side], rep.Results...)
		}
		report, failed := benchtab.Compare(recordings[0], recordings[1])
		say(stdout, "%s", report)
		if failed > 0 {
			return 1
		}
		return 0
	}

	rows := benchtab.Select(table, *suite, *smoke)
	if fs.NArg() > 0 || len(rows) == 0 {
		say(stderr, "benchjson: suite %q has %d rows; arguments %q not understood\n", *suite, len(rows), fs.Args())
		return 2
	}
	reps, command := 3, "go run ./cmd/benchjson -suite "+*suite
	if *smoke {
		reps, command = 1, command+" -smoke"
	}
	results, err := benchtab.Measure(rows, reps, func(format string, args ...any) { say(stdout, format, args...) })
	if err != nil {
		return fail(err)
	}
	if *smoke && *out == "" {
		say(stdout, "smoke ok (no file written; pass -out to record)\n")
		return 0
	}
	files := map[string][]benchtab.Result{}
	var order []string
	for _, r := range results {
		path := *out
		if path == "" {
			path = "BENCH_" + r.Suite + ".json"
		}
		if files[path] == nil {
			order = append(order, path)
		}
		files[path] = append(files[path], r)
	}
	for _, path := range order {
		if err := benchtab.Write(path, command, files[path]); err != nil {
			return fail(err)
		}
		say(stdout, "wrote %s\n", path)
	}
	return 0
}
