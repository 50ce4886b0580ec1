// Package benchtab is the repo's one table of micro-benchmarks: every
// per-kernel number the committed BENCH_<suite>.json files record is one
// Row here, measured by one runner (Measure) and written on one schema
// (Report). cmd/benchjson records and compares the table; the root
// bench_test.go drives the same rows under `go test -bench` so each one
// can be profiled. End-to-end and per-layer numbers are not here: those
// are bench/cmd/topobench's (BENCHMARK.json). A row earns its place by
// measuring what that harness cannot see — a reference implementation
// on the same box (packet model beside flits, no-matrix kernels, full
// recompute, flat pipeline), a scheduler stream, a codec, a size beyond
// its jobs.
package benchtab

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// Row is one micro-benchmark. Run and Ref report the row's exact columns
// through b.ReportMetric: "events/op" (engine events one op dispatches)
// and "hop-bytes" (of the placement one op computes). Both are counts of
// the workload, not of the clock, and repeat on any box.
type Row struct {
	Suite string // the BENCH_<Suite>.json that records the row
	Name  string // unique within the suite
	Smoke bool   // also in the smoke tier: the rows CI runs, a subset of the recorded ones
	Run   func(b *testing.B)
	// Ref, when set, is the reference side the same run measures next to
	// Run, at the same width; RefName says what it is.
	Ref     func(b *testing.B)
	RefName string
}

// Rows returns the table, in recording order.
func Rows() []Row {
	var rows []Row
	for _, suite := range [][]Row{mappingRows(), netsimRows(), incrementalRows(), multilevelRows(), geometricRows(), hierRows()} {
		rows = append(rows, suite...)
	}
	return rows
}

// Select returns the rows of one suite ("all": every suite), smoke tier
// only when smoke is set.
func Select(rows []Row, suite string, smoke bool) []Row {
	var out []Row
	for _, r := range rows {
		if (suite == "all" || r.Suite == suite) && (r.Smoke || !smoke) {
			out = append(out, r)
		}
	}
	return out
}

// Result is one side of one row at one width: the median of Runs
// testing.Benchmark runs, with the fastest and slowest beside it.
type Result struct {
	Suite       string  `json:"suite"`
	Name        string  `json:"name"`
	Ref         string  `json:"ref,omitempty"` // set on the reference side: what it is
	GOMAXPROCS  int     `json:"gomaxprocs"`
	NsPerOp     float64 `json:"ns_per_op"`
	NsMin       float64 `json:"ns_min"`
	NsMax       float64 `json:"ns_max"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	Iterations  int     `json:"iterations"`
	Runs        int     `json:"runs"`
	// Exact columns (see Row).
	EventsPerOp int64   `json:"events_per_op,omitempty"`
	HopBytes    float64 `json:"hop_bytes,omitempty"`
	// Derived: events ÷ time, and on a Run side with a reference, the
	// reference's time and hop-bytes over this side's.
	EventsPerSec  float64 `json:"events_per_sec,omitempty"`
	SpeedupVsRef  float64 `json:"speedup_vs_ref,omitempty"`
	HopBytesRatio float64 `json:"hop_bytes_ratio,omitempty"`
}

// sideName names one side of a row in messages.
func sideName(suite, name, ref string) string {
	if ref != "" {
		name += " [" + ref + "]"
	}
	return suite + "/" + name
}

func nsPerOp(r testing.BenchmarkResult) float64 { return float64(r.T.Nanoseconds()) / float64(r.N) }

// newResult turns the runs of one side into its Result.
func newResult(row Row, ref string, procs int, runs []testing.BenchmarkResult) Result {
	sort.Slice(runs, func(i, j int) bool { return nsPerOp(runs[i]) < nsPerOp(runs[j]) })
	med := runs[len(runs)/2]
	res := Result{
		Suite:       row.Suite,
		Name:        row.Name,
		Ref:         ref,
		GOMAXPROCS:  procs,
		NsPerOp:     nsPerOp(med),
		NsMin:       nsPerOp(runs[0]),
		NsMax:       nsPerOp(runs[len(runs)-1]),
		BytesPerOp:  med.AllocedBytesPerOp(),
		AllocsPerOp: med.AllocsPerOp(),
		Iterations:  med.N,
		Runs:        len(runs),
		EventsPerOp: int64(med.Extra["events/op"]),
		HopBytes:    med.Extra["hop-bytes"],
	}
	if res.EventsPerOp > 0 && res.NsPerOp > 0 {
		res.EventsPerSec = float64(res.EventsPerOp) / (res.NsPerOp * 1e-9)
	}
	return res
}

// widths is the GOMAXPROCS settings every row is measured at: 1, 2 and
// every core of the box.
func widths() []int {
	ws := []int{1}
	for _, w := range []int{2, runtime.NumCPU()} {
		if w > ws[len(ws)-1] {
			ws = append(ws, w)
		}
	}
	return ws
}

// Measure runs every row at every width, reference side first, each side
// reps times, and reports one line per row and width through logf. It
// stops at the first row that fails and returns its error with no
// results: a recording is of the whole table or of nothing.
func Measure(rows []Row, reps int, logf func(format string, args ...any)) ([]Result, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var out []Result
	for _, row := range rows {
		for _, procs := range widths() {
			runtime.GOMAXPROCS(procs)
			side := func(fn func(*testing.B), ref string) (Result, error) {
				runs := make([]testing.BenchmarkResult, reps)
				for i := range runs {
					if runs[i] = testing.Benchmark(fn); runs[i].N == 0 {
						// testing.Benchmark discards what b.Fatal said.
						return Result{}, fmt.Errorf("%s failed at GOMAXPROCS %d (go test -run '^$' -bench Micro/%s . prints why)",
							sideName(row.Suite, row.Name, ref), procs, row.Suite)
					}
				}
				return newResult(row, ref, procs, runs), nil
			}
			var ref Result
			if row.Ref != nil {
				var err error
				if ref, err = side(row.Ref, row.RefName); err != nil {
					return nil, err
				}
				out = append(out, ref)
			}
			run, err := side(row.Run, "")
			if err != nil {
				return nil, err
			}
			note := ""
			if row.Ref != nil {
				run.SpeedupVsRef = ref.NsPerOp / run.NsPerOp
				note = fmt.Sprintf("  %.2fx vs %s", run.SpeedupVsRef, row.RefName)
				if ref.HopBytes > 0 {
					run.HopBytesRatio = run.HopBytes / ref.HopBytes
					note += fmt.Sprintf(", hop-bytes %.3fx", run.HopBytesRatio)
				}
			}
			out = append(out, run)
			logf("%-11s %-62s procs=%d %14.0f ns/op %9d allocs/op%s\n",
				row.Suite, row.Name, procs, run.NsPerOp, run.AllocsPerOp, note)
		}
	}
	return out, nil
}

// Report is a BENCH_<suite>.json document: where and on what the run
// was made, and every result that run measured — nothing else.
type Report struct {
	Command   string   `json:"command"`
	CPUModel  string   `json:"cpu_model"`
	NumCPU    int      `json:"num_cpu"`
	GoVersion string   `json:"go_version"`
	GOARCH    string   `json:"goarch"`
	GitSHA    string   `json:"git_sha"`
	Results   []Result `json:"results"`
}

// Write records results at path under this process's environment header.
func Write(path, command string, results []Result) error {
	rep := Report{
		Command:   command,
		CPUModel:  cpuModel(),
		NumCPU:    runtime.NumCPU(),
		GoVersion: runtime.Version(),
		GOARCH:    runtime.GOARCH,
		GitSHA:    gitSHA(),
		Results:   results,
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// Read loads a recording. A file on another schema is an error, not a
// report with holes.
func Read(path string) (Report, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return Report{}, err
	}
	var rep Report
	dec := json.NewDecoder(bytes.NewReader(buf))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rep); err != nil {
		return Report{}, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	for sc := bufio.NewScanner(f); sc.Scan(); {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitSHA names the commit the run was made on, "-dirty" when the tree
// has uncommitted changes, "unknown" outside a repository.
func gitSHA() string {
	out, err := exec.Command("git", "describe", "--always", "--dirty", "--abbrev=12").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// Compare checks every result of new against the result of old with the
// same suite, name, side and width, and reports one line per difference.
// failed counts the results that broke a rule that holds on any box: an
// exact column changed, or allocs/op rose by more than one and more than
// a tenth. Timing is reported, never counted: a median that moved by
// more than both recordings' own min-to-max spread is noted as slower or
// faster. Comparing recordings with no result in common fails.
func Compare(old, new []Result) (report string, failed int) {
	var w strings.Builder
	type key struct {
		suite, name, ref string
		procs            int
	}
	prev := make(map[key]Result, len(old))
	for _, r := range old {
		prev[key{r.Suite, r.Name, r.Ref, r.GOMAXPROCS}] = r
	}
	matched, moved := 0, 0
	for _, n := range new {
		o, ok := prev[key{n.Suite, n.Name, n.Ref, n.GOMAXPROCS}]
		if !ok {
			continue
		}
		matched++
		id := fmt.Sprintf("%s procs=%d", sideName(n.Suite, n.Name, n.Ref), n.GOMAXPROCS)
		//lint:ignore floatcmp exact columns are counts of the workload and must repeat to the bit
		if o.EventsPerOp != n.EventsPerOp || o.HopBytes != n.HopBytes {
			failed++
			fmt.Fprintf(&w, "FAIL %s: exact columns changed: events/op %d -> %d, hop-bytes %v -> %v\n",
				id, o.EventsPerOp, n.EventsPerOp, o.HopBytes, n.HopBytes)
		}
		if rise := n.AllocsPerOp - o.AllocsPerOp; rise > 1 && float64(rise) > 0.1*float64(o.AllocsPerOp) {
			failed++
			fmt.Fprintf(&w, "FAIL %s: allocs/op %d -> %d\n", id, o.AllocsPerOp, n.AllocsPerOp)
		}
		spread := max(o.NsMax-o.NsMin, n.NsMax-n.NsMin)
		if diff := n.NsPerOp - o.NsPerOp; diff > spread || -diff > spread {
			moved++
			word := "slower"
			if diff < 0 {
				word = "faster"
			}
			fmt.Fprintf(&w, "note %s: %s, %.0f -> %.0f ns/op (%.2fx), beyond both spreads (%.0f ns)\n",
				id, word, o.NsPerOp, n.NsPerOp, n.NsPerOp/o.NsPerOp, spread)
		}
	}
	if matched == 0 {
		return "FAIL the recordings have no result in common\n", 1
	}
	fmt.Fprintf(&w, "%d results compared: %d failed, %d timings moved beyond spread\n", matched, failed, moved)
	return w.String(), failed
}
