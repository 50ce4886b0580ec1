// Command benchjson records the repo's performance trajectory as
// committed JSON, one suite per subsystem:
//
//   - suite "mapping" (BENCH_mapping.json): the strategy microbenchmarks,
//     "baseline" = distance matrix disabled at GOMAXPROCS=1 (the serial
//     virtual-Distance kernels), "optimized" = distance matrix + parallel
//     kernels at full width.
//   - suite "netsim" (BENCH_netsim.json): the discrete-event simulator,
//     "baseline" = the frozen pre-rewrite core in internal/netsim/legacy,
//     "optimized" = the typed-event engine with its run queue and pooled
//     packet state, "parent" = the optimized rows of the recording this
//     one replaced. Optimized entries carry events_per_sec.
//   - suite "multilevel" (BENCH_multilevel.json): the hierarchical
//     mapper at scale, "baseline" = the flat two-phase pipeline
//     (partition + TopoLB on the quotient), "optimized" =
//     core.MultilevelMap. Optimized rows carry hop_bytes_ratio
//     (multilevel ÷ flat) where the flat pipeline completes; the
//     million-task headline row is optimized-only.
//   - suite "service" (BENCH_service.json): the topomapd HTTP service
//     under load, "cold" = every request a distinct job (computes),
//     "warm" = one job repeated (result-cache hits). Records QPS, p50/p99
//     latency, allocs/request, and cache hit rate per grid cell.
//   - suite "incremental" (BENCH_incremental.json): the online remapping
//     engine, "baseline" = a full core.HopBytes recompute per
//     observation, "optimized" = one O(deg) delta applied to a live
//     core.IncrementalState. RefineIncremental, SessionBatch (one
//     steady-state delta batch, gated to a handful of allocs/op) and the
//     end-to-end topomapd session round trip are measured "optimized"
//     only, every case at GOMAXPROCS 1 and 2; their "baseline" rows are
//     the parent commit's numbers, carried over between recordings.
//   - suite "geometric" (BENCH_geometric.json): the near-linear mapping
//     tier, "baseline" = the flat two-phase pipeline, "optimized" = the
//     sfc and rcb-sfc strategies plus the service's auto portfolio on the
//     same workloads, with hop_bytes_ratio against the flat baseline. The
//     curve-codec encode/ rows are gated to 0 allocs/op in every mode.
//   - suite "hier" (BENCH_hier.json): hierarchical machines, "baseline" =
//     the flat strategies run directly on the composite distance metric,
//     "optimized" = the two-phase constrained mapper (core.HierMap), with
//     hop_bytes_ratio (hier ÷ best flat) per size point.
//
// Usage:
//
//	benchjson [-suite mapping|netsim|multilevel|service|incremental|geometric|hier] [-out FILE] [-quick] [-smoke]
//
// Regenerate the matching BENCH_*.json after touching a suite's kernels;
// the speedup column of the optimized entries against their baseline
// counterparts is the number the ISSUE acceptance criteria track.
// Parallel speedups only show on multi-core hardware — the file records
// num_cpu so readers can tell a 1-core run apart.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/taskgraph"
	"repro/internal/topology"
)

// Result is one benchmark × configuration measurement.
type Result struct {
	Name         string  `json:"name"`
	Mode         string  `json:"mode"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	NsPerOp      float64 `json:"ns_per_op"`
	BytesPerOp   int64   `json:"bytes_per_op"`
	AllocsPerOp  int64   `json:"allocs_per_op"`
	Iterations   int     `json:"iterations"`
	Speedup      float64 `json:"speedup_vs_baseline,omitempty"`
	EventsPerSec float64 `json:"events_per_sec,omitempty"`
	// HopBytesRatio is multilevel ÷ flat hop-bytes on multilevel-suite
	// optimized rows: the quality cost of the hierarchical shortcut.
	HopBytesRatio float64 `json:"hop_bytes_ratio,omitempty"`
}

// Report is the top-level BENCH_mapping.json document. GOMAXPROCS and
// NumCPU record the recording machine, so a 1-CPU run (where parallel
// speedups cannot show) is machine-checkable from the committed file.
type Report struct {
	Command    string   `json:"command"`
	GoVersion  string   `json:"go_version"`
	GOARCH     string   `json:"goarch"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	NumCPU     int      `json:"num_cpu"`
	Quick      bool     `json:"quick"`
	Results    []Result `json:"results"`
}

// benchCase is one named workload closed over its inputs.
type benchCase struct {
	name string
	run  func(b *testing.B)
}

// mapCase benchmarks strategy s on a rx×ry task mesh mapped to a rx×ry
// torus (the paper's benchmark pattern), warming up once so lazy
// distance-matrix construction is charged to setup.
func mapCase(name string, s core.Strategy, rx, ry int) benchCase {
	return benchCase{name: fmt.Sprintf("%s/p=%d", name, rx*ry), run: func(b *testing.B) {
		g := taskgraph.Mesh2D(rx, ry, 1e5)
		to := topology.MustTorus(rx, ry)
		if _, err := s.Map(g, to); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Map(g, to); err != nil {
				b.Fatal(err)
			}
		}
	}}
}

func refineCase(rx, ry int) benchCase {
	return benchCase{name: fmt.Sprintf("Refine/p=%d", rx*ry), run: func(b *testing.B) {
		g := taskgraph.Mesh2D(rx, ry, 1e5)
		to := topology.MustTorus(rx, ry)
		m0, err := (core.Random{Seed: 1}).Map(g, to)
		if err != nil {
			b.Fatal(err)
		}
		core.Refine(g, to, m0.Clone(), 1) // warm-up
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m := m0.Clone()
			core.Refine(g, to, m, 1)
		}
	}}
}

func hopBytesCase(rx, ry int) benchCase {
	return benchCase{name: fmt.Sprintf("HopBytes/p=%d", rx*ry), run: func(b *testing.B) {
		g := taskgraph.Mesh2D(rx, ry, 1e5)
		to := topology.MustTorus(rx, ry)
		m, err := (core.Random{Seed: 1}).Map(g, to)
		if err != nil {
			b.Fatal(err)
		}
		core.HopBytes(g, to, m) // warm-up
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			core.HopBytes(g, to, m)
		}
	}}
}

func cases(quick bool) []benchCase {
	cs := []benchCase{
		mapCase("TopoLB", core.TopoLB{}, 8, 8),
		mapCase("TopoLB", core.TopoLB{}, 16, 16),
		mapCase("TopoLB", core.TopoLB{}, 32, 16),
		mapCase("TopoLB(order=1)", core.TopoLB{Order: core.OrderFirst}, 16, 16),
		mapCase("TopoLB(order=3)", core.TopoLB{Order: core.OrderThird}, 8, 8),
		mapCase("TopoCentLB", core.TopoCentLB{}, 16, 16),
		refineCase(16, 16),
		hopBytesCase(32, 32),
	}
	if !quick {
		cs = append(cs,
			mapCase("TopoLB", core.TopoLB{}, 32, 32),
			mapCase("TopoLB(order=3)", core.TopoLB{Order: core.OrderThird}, 16, 16),
			mapCase("TopoCentLB", core.TopoCentLB{}, 32, 32),
			hopBytesCase(64, 64),
		)
	}
	return cs
}

// runMode executes every case under one configuration and returns the
// measurements.
func runMode(mode string, quick bool) []Result {
	var out []Result
	for _, c := range cases(quick) {
		r := testing.Benchmark(c.run)
		out = append(out, Result{
			Name:        c.name,
			Mode:        mode,
			GOMAXPROCS:  runtime.GOMAXPROCS(0),
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
			Iterations:  r.N,
		})
	}
	return out
}

func main() {
	suite := flag.String("suite", "mapping", "benchmark suite: mapping | netsim | multilevel | service | incremental | geometric | hier")
	out := flag.String("out", "", "output file (default BENCH_<suite>.json)")
	quick := flag.Bool("quick", false, "smaller sizes only (CI smoke)")
	smoke := flag.Bool("smoke", false, "netsim/multilevel/service suites: tiny CI subset, write nothing unless -out is set")
	flag.Parse()

	var results []Result
	switch *suite {
	case "mapping":
		results = runMappingSuite(*quick)
	case "netsim":
		results = runNetsimSuite(*quick, *smoke)
	case "multilevel":
		results = runMultilevelSuite(*quick, *smoke)
	case "incremental":
		results = runIncrementalSuite(*quick, *smoke)
	case "geometric":
		results = runGeometricSuite(*quick, *smoke)
	case "hier":
		results = runHierSuite(*quick, *smoke)
	case "service":
		// The service suite measures a load grid (QPS, latency percentiles,
		// cache hit rates), not ns/op micro-benchmarks, so it writes its own
		// report shape.
		if err := runServiceSuite(*smoke, *out); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		return
	default:
		fmt.Fprintf(os.Stderr, "benchjson: unknown suite %q\n", *suite)
		os.Exit(2)
	}
	// The hot-path zero-allocation contracts are part of their suites:
	// any gated optimized row that allocates in steady state is a
	// regression, whether the run is a smoke check or a full recording.
	var violations []string
	switch *suite {
	case "netsim":
		violations = zeroAllocViolations(results)
	case "geometric":
		violations = geometricZeroAllocViolations(results)
	case "incremental":
		violations = incrementalAllocViolations(results)
	}
	if len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintln(os.Stderr, "benchjson: allocation bound violated:", v)
		}
		os.Exit(1)
	}
	if *smoke && *out == "" {
		// Smoke runs are CI health checks: print the optimized rows and
		// leave the committed BENCH files alone.
		for _, r := range results {
			if r.Mode == "optimized" {
				fmt.Printf("%-24s %12.0f ns/op  %8d allocs/op\n", r.Name, r.NsPerOp, r.AllocsPerOp)
			}
		}
		fmt.Println("smoke ok (no file written; pass -out to record)")
		return
	}
	if *out == "" {
		*out = "BENCH_" + *suite + ".json"
	}
	switch *suite {
	case "incremental":
		results = keepRecordedBaselines(*out, results)
	case "netsim":
		results = keepOptimizedAsParent(*out, results)
	}

	rep := Report{
		Command:    "go run ./cmd/benchjson -suite " + *suite,
		GoVersion:  runtime.Version(),
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Quick:      *quick,
		Results:    results,
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	for _, r := range results {
		if r.Mode != "optimized" {
			continue
		}
		fmt.Printf("%-24s %12.0f ns/op  %8d allocs/op  speedup %.2fx\n",
			r.Name, r.NsPerOp, r.AllocsPerOp, r.Speedup)
	}
	fmt.Println("wrote", *out)
}

// runMappingSuite runs the strategy microbenchmarks in the baseline
// (distance matrix off, GOMAXPROCS=1) and optimized configurations.
func runMappingSuite(quick bool) []Result {
	origProcs := runtime.GOMAXPROCS(0)

	runtime.GOMAXPROCS(1)
	prevCap := topology.SetDistanceMatrixCap(0)
	baseline := runMode("baseline", quick)

	topology.SetDistanceMatrixCap(prevCap)
	runtime.GOMAXPROCS(origProcs)
	optimized := runMode("optimized", quick)

	for i := range optimized {
		if base := baseline[i].NsPerOp; base > 0 && optimized[i].NsPerOp > 0 {
			optimized[i].Speedup = base / optimized[i].NsPerOp
		}
	}
	return append(baseline, optimized...)
}
