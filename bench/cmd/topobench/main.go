// Command topobench is the repository's one benchmark: five seeded,
// self-checking workloads that each stress a different set of layers, a
// fixed list of end-to-end metrics (run with -trace 0) and per-layer
// metrics (run with -trace 1). BENCHMARK.json at the repository root
// names them; bench/README.md says why each exists and how to read them.
//
//	go run ./bench/cmd/topobench -workload svc-cold -seed 1 -seconds 18 -trace 0
//
// Everything is measured from outside the program: HTTP into a
// default-configured service.Server behind a loopback listener, and calls
// to the public functions of the library packages. The last line of
// standard output is one JSON object {correct, attempted, failed,
// metrics}; the exit code is non-zero when any output failed verification.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool
	outDir   string
	clients  int
}

func main() {
	rep, err := run(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "topobench:", err)
		os.Exit(2)
	}
	fmt.Print(rep.String())
	if !rep.Correct {
		os.Exit(1)
	}
}

// run parses the pipeline's command line, runs the workload and returns
// its report; an error means no result could be produced at all.
func run(args []string) (*report, error) {
	fs := flag.NewFlagSet("topobench", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload to run")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed for request order, job seeds and delta streams")
	fs.Float64Var(&cfg.seconds, "seconds", 18, "length of the timed phase")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics, spans written to -out")
	fs.BoolVar(&cfg.smoke, "smoke", false, "shrunken inputs and phases, for tests")
	fs.StringVar(&cfg.outDir, "out", "bench/out", "directory for trace files")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	cfg.trace = trace != 0
	newWorkload, ok := workloads[cfg.workload]
	if !ok || fs.NArg() > 0 || cfg.seconds <= 0 {
		return nil, fmt.Errorf("need -workload (one of %s), -seconds > 0 and no other arguments", strings.Join(workloadNames(), ", "))
	}
	cfg.clients = benchProcs()
	runtime.GOMAXPROCS(cfg.clients)
	rep, err := measure(cfg, newWorkload(cfg))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	return rep, nil
}

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is one run's outcome. The exported fields are the pipeline's
// result line; the rest is the human-readable account printed above it.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	env    environment
	order  []string // metric names in print order
	notes  []string
	errors []string
}

func (r *report) set(name string, value float64, unit string) {
	if _, seen := r.Metrics[name]; !seen {
		r.order = append(r.order, name)
	}
	r.Metrics[name] = metric{Value: value, Unit: unit}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// String renders the human-readable account followed by the result line.
func (r *report) String() string {
	var buf strings.Builder
	w := &buf
	e := r.env
	fmt.Fprintf(w, "topobench workload=%s seed=%d trace=%t smoke=%t\n", e.Workload, e.Seed, e.Trace, e.Smoke)
	fmt.Fprintf(w, "  cpu=%q num_cpu=%d gomaxprocs=%d clients=%d go=%s git=%s\n",
		e.CPUModel, e.NumCPU, e.GOMAXPROCS, e.Clients, e.GoVersion, e.GitSHA)
	fmt.Fprintf(w, "  phases: warm-up %.2fs, timed %.2fs; closed loop\n", e.WarmupS, e.TimedS)
	for _, name := range r.order {
		m := r.Metrics[name]
		fmt.Fprintf(w, "  %-32s %16.6g %s\n", name, m.Value, m.Unit)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	for _, e := range r.errors {
		fmt.Fprintf(w, "  FAIL: %s\n", e)
	}
	fmt.Fprintf(w, "  attempted=%d failed=%d correct=%t\n", r.Attempted, r.Failed, r.Correct)
	line, err := json.Marshal(r)
	if err != nil {
		panic(err) // a map of float64 and strings always marshals
	}
	fmt.Fprintf(w, "%s\n", line)
	return buf.String()
}

// tally counts what the run attempted and what failed verification; the
// first few failures are kept for the report.
type tally struct {
	attempted, failed int64
	errors            []string
}

// pass counts n items that verified.
func (t *tally) pass(n int) {
	if t != nil {
		t.attempted += int64(n)
	}
}

// check counts one verified item; a non-nil err is a failure.
func (t *tally) check(err error) {
	if t == nil {
		return
	}
	t.attempted++
	if err != nil {
		t.failed++
		if len(t.errors) < 8 {
			t.errors = append(t.errors, err.Error())
		}
	}
}

// measure runs one workload under the protocol: set-up, the quality probe
// on pinned inputs, warm-up, then either the timed phase (trace off) or
// the traced phases.
func measure(cfg config, w workload) (*report, error) {
	warm := cfg.seconds / 6
	env := environment{
		Workload: cfg.workload,
		CPUModel: cpuModel(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Clients: cfg.clients, GoVersion: runtime.Version(), GitSHA: gitSHA(), Seed: cfg.seed,
		WarmupS: warm, TimedS: cfg.seconds, Smoke: cfg.smoke, Trace: cfg.trace,
	}
	rep := &report{Metrics: map[string]metric{}, env: env}
	var tl tally
	defer w.close()

	if cfg.trace {
		if err := measureTraced(cfg, w, rep, &tl, warm); err != nil {
			return nil, err
		}
	} else {
		if err := measureEndToEnd(cfg, w, rep, &tl, warm); err != nil {
			return nil, err
		}
	}
	rep.Attempted, rep.Failed, rep.errors = tl.attempted, tl.failed, tl.errors
	rep.Correct = tl.failed == 0 && tl.attempted > 0
	return rep, nil
}

// prober is implemented by workloads whose pinned quality probe is a step
// of its own after set-up, rather than part of priming.
type prober interface {
	probe(tl *tally) error
}

func probe(w workload, tl *tally) error {
	if p, ok := w.(prober); ok {
		if err := p.probe(tl); err != nil {
			return fmt.Errorf("quality probe: %w", err)
		}
	}
	return nil
}

// setupReps bounds how often set-up is repeated for a steady median: at
// least minSetupReps, then until setupBudget is spent, at most
// maxSetupReps. Cheap set-ups repeat often, expensive ones three times.
const (
	minSetupReps = 3
	maxSetupReps = 15
	setupBudget  = 1500 * time.Millisecond
)

// quietQuantile is the quantile of a phase's block times that ops_per_s is
// read at. The reference machine is a shared host whose memory latency
// doubles for seconds to minutes at a time when its neighbours are busy
// (bench/README.md, Measured spread); that slows a block down and never
// speeds one up, so the faster blocks are the ones that measured the
// program. The lower quartile keeps a quarter of the run's blocks below the
// reading, which one lucky block cannot move.
const quietQuantile = 0.25

// quietRate is a timed phase's throughput: the successful ops of a block
// over the lower-quartile block time. Every block has the same
// composition, so block times differ only by what the machine did.
func quietRate(r phaseResult, block int) float64 {
	if len(r.blockS) == 0 || r.ops == 0 {
		return 0
	}
	times := append([]float64(nil), r.blockS...)
	sort.Float64s(times)
	okPerBlock := float64(block) * float64(r.ops-r.failed) / float64(r.ops)
	return okPerBlock / percentile(times, quietQuantile)
}

func measureEndToEnd(cfg config, w workload, rep *report, tl *tally, warm float64) error {
	var setups []float64
	spent := time.Duration(0)
	for r := 0; r < maxSetupReps && (r < minSetupReps || spent < setupBudget); r++ {
		if r > 0 {
			w.close()
		}
		dropProcessCaches()
		t0 := time.Now()
		if err := w.setup(nil, tl); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		d := time.Since(t0)
		spent += d
		setups = append(setups, d.Seconds())
		if cfg.smoke {
			break
		}
	}
	if err := probe(w, tl); err != nil {
		return err
	}

	ph := newPhases(w, nil)
	ph.run(time.Duration(warm*float64(time.Second)), nil) // warm-up, discarded
	runtime.GC()
	timed := ph.run(time.Duration(cfg.seconds*float64(time.Second)), tl)
	if err := w.validate(); err != nil {
		tl.check(fmt.Errorf("run invalid: %w", err))
	}

	lat := summarize(timed.latMS)
	hops, simRatio := w.quality()
	ok := timed.ops - timed.failed
	rep.set("setup_s", median(setups), "s")
	rep.set("ops_per_s", quietRate(timed, ph.block), "1/s")
	rep.set("success_ratio", 1-float64(timed.failed)/float64(max(timed.ops, 1)), "ratio")
	rep.set("alloc_kb_per_op", float64(timed.allocBytes)/1024/float64(max(timed.ops, 1)), "KB")
	rep.set("hops_per_byte", hops, "hops")
	rep.set("sim_time_ratio", simRatio, "ratio")
	rep.note("set-up repeated %d times (median reported), process caches dropped before each", len(setups))
	rep.note("latency over %d ops: p50 %.5g ms, p%.4g %.5g ms (not gated; the traced run reports them as service.p50_ms and service.p90_ms)",
		lat.N, lat.P50, lat.P90At*100, lat.P90)
	if lat.N <= 16 {
		rep.note("every op's latency, ascending (ms): %.5g", lat.sortedM)
	}
	rep.note("timed phase ran %.3fs (whole blocks of %d ops); ops attempted %d, succeeded %d, failed %d",
		timed.elapsed.Seconds(), ph.block, timed.ops, ok, timed.failed)
	blocks := summarize(append([]float64(nil), timed.blockS...))
	rep.note("ops_per_s is successful ops per block over the lower-quartile block time; %d blocks took min %.5g, p25 %.5g, p50 %.5g, max %.5g s, and ops over the whole phase is %.6g 1/s",
		blocks.N, percentile(blocks.sortedM, 0), percentile(blocks.sortedM, quietQuantile), blocks.P50, percentile(blocks.sortedM, 1), float64(ok)/timed.elapsed.Seconds())
	rep.note("alloc_kb_per_op is in-process: it includes the load generator's and verifier's share")
	return nil
}

// layerSpans are the layers the harness wraps in spans, with the unit of
// the per-layer time metric each feeds: span "core.topolb" in "ms" is the
// metric core.topolb_ms, the spans' summed self time per traced op (or,
// when the layer only runs during set-up, per set-up).
var layerSpans = []struct{ span, unit string }{
	{"json.decode", "ms"},
	{"json.encode", "ms"},
	{"cliutil.parse_topology", "ms"},
	{"cliutil.parse_pattern", "ms"},
	{"cliutil.pattern_coords", "ms"},
	{"cliutil.parse_strategy", "us"},
	{"taskgraph.read_json", "ms"},
	{"hiertopo.parse", "ms"},
	{"topology.distmatrix_build", "ms"},
	{"partition.multilevel", "ms"},
	{"partition.quotient", "ms"},
	{"core.topolb", "ms"},
	{"core.topocentlb", "ms"},
	{"core.refine", "ms"},
	{"core.multilevelmap", "ms"},
	{"core.hiermap", "ms"},
	{"core.sfc", "ms"},
	{"core.rcbsfc", "ms"},
	{"core.hopbytes", "ms"},
	{"core.inc_apply", "us"},
	{"core.inc_clone", "ms"},
	{"core.inc_refine", "ms"},
	{"metrics.evaluate", "ms"},
	{"trace.build", "ms"},
	{"netsim.replay", "ms"},
}

// counterMetrics are the per-layer metrics workloads report from public
// counters and their own arithmetic, with units; a workload that does not
// exercise a layer leaves its metrics at zero.
var counterMetrics = []struct{ name, unit string }{
	{"service.hit_ratio", "ratio"},
	{"service.evictions", "count"},
	{"service.jobs_computed", "count"},
	{"service.coalesced_joins", "count"},
	{"service.rejected_429", "count"},
	{"service.client_errors", "count"},
	{"service.overhead_ms", "ms"},
	{"service.wait_ms", "ms"},
	{"service.allocs_per_op", "count"},
	{"service.p50_ms", "ms"},
	{"service.p90_ms", "ms"},
	{"service.ptail_ms", "ms"},
	{"service.session_overhead_ms", "ms"},
	{"service.remap_push_ratio", "ratio"},
	{"json.body_kb", "KB"},
	{"topology.distcache_hit_ratio", "ratio"},
	{"partition.edge_cut", "bytes"},
	{"partition.imbalance", "ratio"},
	{"core.refine_swaps", "count"},
	{"core.inc_migrations", "count"},
	{"netsim.events", "count"},
	{"netsim.events_per_s", "1/s"},
	{"netsim.allocs_per_replay", "count"},
	{"netsim.pool_reuse_ratio", "ratio"},
	{"parallel.scaling_x", "ratio"},
	{"runtime.peak_rss_mb", "MB"},
	{"runtime.gc_cpu_pct", "%"},
	{"bench.trace_overhead_pct", "%"},
}

func measureTraced(cfg config, w workload, rep *report, tl *tally, warm float64) error {
	rec := newRecorder()
	rec.enable(true)
	dropProcessCaches()
	root := rec.begin("setup", -1, -1)
	if err := w.setup(&spanCtx{rec: rec, parent: root, op: -1}, tl); err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	rec.end(root)
	setupSpans := len(rec.snapshot())
	rec.enable(false)
	if err := probe(w, tl); err != nil {
		return err
	}

	// The traced run spends the same total time as the untraced one: 60 %
	// on the closed loop, in slices that alternate the recorder off and on
	// so drift cancels (the difference in median latency is the tracing
	// overhead), the rest on the workload's layer breakdown.
	share := func(f float64) time.Duration { return time.Duration(f * cfg.seconds * float64(time.Second)) }
	ph := newPhases(w, rec)
	ph.run(time.Duration(warm*float64(time.Second)), nil)
	runtime.GC()
	var off, on phaseResult
	for slice := 0; slice < 4; slice++ {
		traced := slice%2 == 1
		rec.enable(traced)
		r := ph.run(share(0.15), tl)
		if traced {
			on.add(r)
		} else {
			off.add(r)
		}
	}
	rec.enable(true)
	values, err := w.layers(&spanCtx{rec: rec, parent: -1, op: -1}, share(0.4), tl)
	if err != nil {
		return err
	}
	rec.enable(false)
	if err := w.validate(); err != nil {
		tl.check(fmt.Errorf("run invalid: %w", err))
	}

	spans := rec.snapshot()
	self := selfTimes(spans)
	setupTotals := layerTotals(spans[:setupSpans], self[:setupSpans])
	opTotals := layerTotals(spans[setupSpans:], self[setupSpans:])
	rootName := w.layerRoot()
	ops := float64(max(opTotals[rootName].Calls, 1))
	for _, ls := range layerSpans {
		metric, scale := ls.span+"_"+ls.unit, 1e6 // ns per ms
		if ls.unit == "us" {
			scale = 1e3
		}
		if t, ok := opTotals[ls.span]; ok {
			rep.set(metric, float64(t.SelfNS)/scale/ops, ls.unit)
		} else {
			rep.set(metric, float64(setupTotals[ls.span].SelfNS)/scale, ls.unit)
		}
	}

	offLat := summarize(off.latMS)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if c1, ok := values["service.c1_p50_ms"]; ok {
		values["service.wait_ms"] = offLat.P50 - c1
		rep.note("p50 alone (1 client): %.4g ms", c1)
	}
	values["service.p50_ms"] = offLat.P50
	values["service.p90_ms"] = offLat.P90
	values["service.ptail_ms"] = offLat.Tail
	values["service.allocs_per_op"] = float64(off.mallocs) / float64(max(off.ops, 1))
	values["runtime.peak_rss_mb"] = peakRSSMB()
	values["runtime.gc_cpu_pct"] = ms.GCCPUFraction * 100
	// Whole blocks have one composition, so time per op compares like
	// with like between the recorder-off and recorder-on slices.
	perOpOff, perOpOn := off.elapsed.Seconds()/float64(max(off.ops, 1)), on.elapsed.Seconds()/float64(max(on.ops, 1))
	values["bench.trace_overhead_pct"] = (perOpOn - perOpOff) / perOpOff * 100
	for _, cm := range counterMetrics {
		rep.set(cm.name, values[cm.name], cm.unit)
	}

	rep.note("time metrics are summed span self time per traced %q (n=%d); layers only called in set-up report the set-up total", rootName, int(ops))
	rep.note("over %d ops at %d clients service.p90_ms is p%.4g and service.ptail_ms p%.5g: the highest percentiles up to p90 and p99.9 with %d samples beyond them, never below the median",
		offLat.N, ph.clients, offLat.P90At*100, offLat.TailAt*100, minBeyond)
	rep.note("at %d clients: %.4g ms per op recorder off (%d ops), %.4g ms recorder on (%d ops)",
		ph.clients, perOpOff*1e3, off.ops, perOpOn*1e3, on.ops)
	for _, line := range shareLines(spans, self, setupSpans, rootName, w.opSpan()) {
		rep.note("%s", line)
	}
	path, err := writeTrace(cfg.outDir, cfg.workload, rep.env, spans)
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	rep.note("%d spans written to %s", len(spans), path)
	return nil
}

// shareLines reports where traced op time went: each package's share of
// the summed self time of all layer spans under the rootName spans
// recorded from span index from on. The root's own self time is the
// harness's glue, listed as "bench". When the user-visible opSpan is a
// request whose interior the layer spans model from outside, a second
// line says how much of the request time the modelled layers add up to.
func shareLines(spans []span, self []int64, from int, rootName, opSpan string) []string {
	byPkg := map[string]int64{}
	var layerNS, opNS int64
	for i := from; i < len(spans); i++ {
		s := spans[i]
		root := s
		for root.Parent >= 0 {
			root = spans[root.Parent]
		}
		switch {
		case root.Name != rootName:
			continue
		case s.Name == opSpan && opSpan != rootName:
			opNS += s.End - s.Start
			continue
		case s.Name == rootName:
			byPkg["bench"] += self[i]
		default:
			pkg, _, _ := strings.Cut(s.Name, ".")
			byPkg[pkg] += self[i]
		}
		layerNS += self[i]
	}
	if layerNS == 0 {
		return nil
	}
	pkgs := make([]string, 0, len(byPkg))
	for p := range byPkg {
		pkgs = append(pkgs, p)
	}
	sort.Strings(pkgs)
	parts := make([]string, 0, len(pkgs))
	for _, p := range pkgs {
		parts = append(parts, fmt.Sprintf("%s %.1f%%", p, 100*float64(byPkg[p])/float64(layerNS)))
	}
	lines := []string{"share of traced layer time: " + strings.Join(parts, ", ")}
	if opNS > 0 {
		lines = append(lines, fmt.Sprintf("the replayed layers add up to %.1f%% of %s time", 100*float64(layerNS)/float64(opNS), opSpan))
	}
	return lines
}
