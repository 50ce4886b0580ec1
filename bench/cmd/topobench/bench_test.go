package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/service"
)

// benchmarkDoc is the part of BENCHMARK.json the tests hold the program to.
type benchmarkDoc struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchmarkDoc(t *testing.T) benchmarkDoc {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	var doc benchmarkDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return doc
}

// smokeRuns memoises smoke runs, so the tests below share them; again
// distinguishes a deliberate second run of the same arguments.
var smokeRuns = map[string]*report{}

// smokeOut is where the shared smoke runs leave their trace files.
var smokeOut string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "topobench")
	if err != nil {
		panic(err)
	}
	smokeOut = dir
	code := m.Run()
	if err := os.RemoveAll(dir); err != nil {
		panic(err)
	}
	os.Exit(code)
}

// smoke runs one workload in smoke mode, given as the pipeline gives its
// arguments, and returns its report.
func smoke(t *testing.T, workload, seed, trace string, again bool) *report {
	t.Helper()
	key := strings.Join([]string{workload, seed, trace, map[bool]string{true: "again"}[again]}, "/")
	if rep, ok := smokeRuns[key]; ok {
		return rep
	}
	rep, err := run([]string{"--workload", workload, "--seed", seed, "--seconds", "0.3", "--trace", trace,
		"-smoke", "-out", smokeOut})
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
		t.Fatalf("%s: correct=%t attempted=%d failed=%d errors=%v", workload, rep.Correct, rep.Attempted, rep.Failed, rep.errors)
	}
	smokeRuns[key] = rep
	return rep
}

func metricNames(rep *report) []string {
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// TestWorkloadsMatchBenchmarkJSON runs every workload both ways and holds
// the output to the contract: exactly the declared metrics with the
// declared units, no end-to-end metric zero, a parseable result line last,
// and a trace file from the traced run.
func TestWorkloadsMatchBenchmarkJSON(t *testing.T) {
	doc := loadBenchmarkDoc(t)
	if got := workloadNames(); len(doc.Workloads) != len(got) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %v", len(doc.Workloads), got)
	}
	for _, wl := range doc.Workloads {
		t.Run(wl.Name, func(t *testing.T) {
			for _, mode := range []struct {
				trace string
				want  []struct{ Name, Unit string }
			}{{"0", doc.EndToEnd}, {"1", doc.PerLayer}} {
				rep := smoke(t, wl.Name, "1", mode.trace, false)
				var want []string
				for _, m := range mode.want {
					want = append(want, m.Name)
					if got := rep.Metrics[m.Name].Unit; got != m.Unit {
						t.Errorf("trace %s: %s has unit %q, BENCHMARK.json says %q", mode.trace, m.Name, got, m.Unit)
					}
					v := rep.Metrics[m.Name].Value
					if math.IsNaN(v) || math.IsInf(v, 0) || (mode.trace == "0" && v <= 0) {
						t.Errorf("trace %s: %s = %v", mode.trace, m.Name, v)
					}
				}
				sort.Strings(want)
				if got := metricNames(rep); !reflect.DeepEqual(got, want) {
					t.Errorf("trace %s: metrics %v, BENCHMARK.json declares %v", mode.trace, got, want)
				}
				lines := strings.Split(strings.TrimSpace(rep.String()), "\n")
				var last struct {
					Correct           bool
					Attempted, Failed int64
					Metrics           map[string]metric
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil || !last.Correct || len(last.Metrics) != len(want) {
					t.Errorf("trace %s: last line is not the result object: %v: %s", mode.trace, err, lines[len(lines)-1])
				}
				for _, key := range []string{"cpu=", "num_cpu=", "gomaxprocs=", "go=", "git=", "seed=", "warm-up", "clients="} {
					if !strings.Contains(rep.String(), key) {
						t.Errorf("trace %s: header lacks %q", mode.trace, key)
					}
				}
			}
		})
	}
}

// TestTraceFile checks the traced run leaves a span file whose spans link
// up: every parent exists and encloses its child's start.
func TestTraceFile(t *testing.T) {
	smoke(t, "lib-scale", "1", "1", false)
	data, err := os.ReadFile(filepath.Join(smokeOut, "trace-lib-scale.json"))
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatal(err)
	}
	if tf.Env.Workload != "lib-scale" || tf.Env.Seed != 1 || len(tf.Spans) == 0 {
		t.Fatalf("trace header %+v, %d spans", tf.Env, len(tf.Spans))
	}
	names := map[string]bool{}
	for i, s := range tf.Spans {
		names[s.Name] = true
		if int(s.ID) != i || s.End < s.Start {
			t.Fatalf("span %d: %+v", i, s)
		}
		if s.Parent >= 0 {
			p := tf.Spans[s.Parent]
			if s.Start < p.Start || p.Op != s.Op {
				t.Fatalf("span %+v does not sit inside its parent %+v", s, p)
			}
		}
	}
	for _, want := range []string{"setup", "op", "bench.job", "core.topolb", "core.hiermap", "partition.multilevel", "core.hopbytes"} {
		if !names[want] {
			t.Errorf("no %q span in the lib-scale trace", want)
		}
	}
}

// TestSeedDeterminism: the same seed gives the same request sequences and
// exactly equal quality metrics and exact counts; another seed gives
// another sequence.
func TestSeedDeterminism(t *testing.T) {
	payloads := func(seed int64) [][]byte {
		w := newSvcCold(config{seed: seed, smoke: true, clients: 2})
		var out [][]byte
		for _, r := range w.newSequence(0, 3).reqs {
			out = append(out, r.payload)
		}
		return out
	}
	if !reflect.DeepEqual(payloads(1), payloads(1)) {
		t.Error("svc-cold: seed 1 drew two different request sequences")
	}
	if reflect.DeepEqual(payloads(1), payloads(2)) {
		t.Error("svc-cold: seeds 1 and 2 drew the same request sequence")
	}
	ranks := func(seed int64) []int {
		w := newSvcWarm(config{seed: seed, smoke: true, clients: 2})
		var out []int
		for _, r := range w.newSequence(0, 2).reqs {
			out = append(out, r.class)
		}
		return out
	}
	if a, b := ranks(1), ranks(2); !reflect.DeepEqual(a, ranks(1)) || reflect.DeepEqual(a, b) {
		t.Error("svc-warm: the Zipf order must follow the seed")
	} else {
		sort.Ints(a)
		sort.Ints(b)
		if !reflect.DeepEqual(a, b) {
			t.Error("svc-warm: two seeds must draw the same composition")
		}
	}

	exact := map[string][]string{
		"svc-cold":  {"partition.edge_cut", "partition.imbalance", "core.refine_swaps"},
		"lib-scale": {"partition.edge_cut", "partition.imbalance", "core.refine_swaps"},
		"sim-sweep": {"netsim.events"},
	}
	for workload, names := range exact {
		a, b := smoke(t, workload, "1", "1", false), smoke(t, workload, "1", "1", true)
		for _, n := range names {
			if a.Metrics[n] != b.Metrics[n] {
				t.Errorf("%s: %s is %v then %v under one seed", workload, n, a.Metrics[n].Value, b.Metrics[n].Value)
			}
		}
	}
	// The quality metrics are measured on pinned inputs: they repeat
	// exactly from run to run and from seed to seed.
	for _, workload := range workloadNames() {
		a, b := smoke(t, workload, "1", "0", false), smoke(t, workload, "2", "0", false)
		for _, n := range []string{"hops_per_byte", "sim_time_ratio"} {
			if a.Metrics[n] != b.Metrics[n] {
				t.Errorf("%s: %s must repeat exactly: %v, then %v under seed 2", workload, n, a.Metrics[n].Value, b.Metrics[n].Value)
			}
		}
	}

	w := newSessionStream(config{smoke: true, clients: 2})
	if err := w.buildDB(); err != nil {
		t.Fatal(err)
	}
	stream := func(seed int64) []byte {
		s := &deltaStream{rng: rand.New(rand.NewSource(seed)), db: w.db, batch: 8}
		return mustJSON([]any{s.next(), s.next()})
	}
	if !bytes.Equal(stream(1), stream(1)) || bytes.Equal(stream(1), stream(2)) {
		t.Error("session-stream: the delta stream must follow the seed")
	}
}

// TestCorruptedBodyIsAFailure tampers with what the verifier compares
// against and checks the op is counted as failed and the run as incorrect.
func TestCorruptedBodyIsAFailure(t *testing.T) {
	w := newSvcWarm(config{seed: 1, smoke: true, clients: 2})
	var tl tally
	if err := w.setup(nil, &tl); err != nil {
		t.Fatal(err)
	}
	defer w.close()
	if tl.failed != 0 {
		t.Fatalf("priming failed verification: %v", tl.errors)
	}
	w.primed[0][len(w.primed[0])/2] ^= 1 // rank 0 is the most requested job
	res := newPhases(w, nil).run(50*time.Millisecond, &tl)
	if res.failed == 0 || tl.failed != res.failed || tl.attempted <= tl.failed {
		t.Fatalf("corrupted body: phase failed %d of %d ops, tally %d of %d", res.failed, res.ops, tl.failed, tl.attempted)
	}

	// The body verifier itself: a valid body passes; a mapping that is no
	// longer a placement, a hop-bytes figure that is off by one bit, and a
	// truncated body must each fail.
	in, err := materialize(nil, service.Job{Graph: pattern("mesh2d:4,4"), Topology: "torus:4,4", Strategy: "topolb"})
	if err != nil {
		t.Fatal(err)
	}
	out, err := compute(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	good, err := encodeOutcome(nil, in, out)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := checkMapBody(good, in.graph, in.topo, true); err != nil {
		t.Fatalf("valid body rejected: %v", err)
	}
	dup := *out
	dup.placement = append([]int(nil), out.placement...)
	dup.placement[0] = dup.placement[1]
	bit := *out
	bit.hopBytes = math.Nextafter(out.hopBytes, math.Inf(1))
	for name, o := range map[string]*outcome{"duplicate processor": &dup, "hop-bytes off by one bit": &bit} {
		body, err := encodeOutcome(nil, in, o)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := checkMapBody(body, in.graph, in.topo, true); err == nil {
			t.Errorf("%s: body accepted", name)
		}
	}
	if _, err := checkMapBody(good[:len(good)/2], in.graph, in.topo, true); err == nil {
		t.Error("truncated body accepted")
	}
}

func TestCheckPlacement(t *testing.T) {
	for _, tc := range []struct {
		name      string
		placement []int
		n, p      int
		exact, ok bool
	}{
		{"bijection", []int{2, 0, 1}, 3, 3, true, true},
		{"repeat in bijection", []int{0, 0, 1}, 3, 3, true, false},
		{"out of range", []int{0, 3, 1}, 3, 3, true, false},
		{"short", []int{0, 1}, 3, 3, true, false},
		{"exact capacities", []int{0, 0, 1, 1, 2}, 5, 3, true, true},
		{"over capacity", []int{0, 0, 0, 1, 2}, 5, 3, true, false},
		{"over capacity tolerated when not promised", []int{0, 0, 0, 1, 2}, 5, 3, false, true},
		{"empty processor", []int{0, 0, 1, 1}, 4, 3, false, false},
	} {
		if err := checkPlacement(tc.placement, tc.n, tc.p, tc.exact); (err == nil) != tc.ok {
			t.Errorf("%s: %v", tc.name, err)
		}
	}
}

func TestPercentilesAndSampleCounts(t *testing.T) {
	ms := make([]float64, 1000)
	for i := range ms {
		ms[i] = float64(1000 - i) // unsorted on purpose
	}
	s := summarize(ms)
	if s.N != 1000 || s.P50 != 500 || s.P90 != 900 || s.P90At != 0.9 {
		t.Errorf("1000 samples: %+v", s)
	}
	if s.TailAt != 0.99 || s.Tail != 990 { // ten samples lie beyond p99, not beyond p99.9
		t.Errorf("1000 samples: tail p%v = %v", s.TailAt*100, s.Tail)
	}
	// 50 samples: ten beyond means p80 at most.
	if p := tailPercentile(50, 0.9); p != 0.8 {
		t.Errorf("50 samples: p90 degrades to p%v, want p80", p*100)
	}
	// A handful of passes: the median, never the maximum.
	few := summarize([]float64{5, 1, 4, 2, 3})
	if few.P90At != 0.5 || few.P90 != 3 || few.P50 != 3 {
		t.Errorf("5 samples: %+v", few)
	}
	if got := percentile([]float64{1, 2, 3, 4}, 0.5); got != 2 {
		t.Errorf("nearest-rank median of 4 = %v", got)
	}
	if got := geomean([]float64{1, 4, 16}); math.Abs(got-4) > 1e-12 {
		t.Errorf("geomean = %v", got)
	}
	// Throughput is read at the lower-quartile block time, whatever order
	// the blocks came in, and counts only the ops that succeeded.
	phase := phaseResult{ops: 80, failed: 8, blockS: []float64{4, 2, 8, 1, 2, 5, 4, 4}}
	if got := quietRate(phase, 10); got != 9.0/2 {
		t.Errorf("quietRate = %v, want 9 successful ops per 2 s block", got)
	}
	if got := quietRate(phaseResult{}, 10); got != 0 {
		t.Errorf("quietRate of an empty phase = %v", got)
	}
	counts := zipfCounts(10, 100, 1.1)
	total := 0
	for r, c := range counts {
		total += c
		if r > 0 && c > counts[r-1] {
			t.Errorf("zipf counts not monotone: %v", counts)
		}
	}
	if total != 100 || counts[0] <= counts[9] {
		t.Errorf("zipf counts %v sum to %d", counts, total)
	}
}

func TestSpanSelfTime(t *testing.T) {
	// Parent 0..100 with children 10..30 and 20..50 (running in parallel,
	// overlapping) and 60..70; the middle child has a child of its own.
	spans := []span{
		{ID: 0, Parent: -1, Name: "op", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "core.a", Start: 10, End: 30},
		{ID: 2, Parent: 0, Name: "core.b", Start: 20, End: 50},
		{ID: 3, Parent: 0, Name: "core.a", Start: 60, End: 70},
		{ID: 4, Parent: 2, Name: "partition.c", Start: 25, End: 45},
		{ID: 5, Parent: 0, Name: "late", Start: 95, End: 120}, // clipped to the parent
	}
	want := []int64{100 - (40 + 10 + 5), 20, 30 - 20, 10, 20, 25}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
	totals := layerTotals(spans, selfTimes(spans))
	if totals["core.a"] != (layerTotal{SelfNS: 30, Calls: 2}) {
		t.Errorf("core.a totals %+v", totals["core.a"])
	}
	lines := shareLines(spans, selfTimes(spans), 0, "op", "op")
	if len(lines) != 1 || !strings.Contains(lines[0], "partition 15.4%") {
		t.Errorf("share lines %v", lines)
	}

	rec := newRecorder()
	if _, end := (&spanCtx{rec: rec, parent: -1}).span("off"); end == nil || len(rec.snapshot()) != 0 {
		t.Error("a recorder that is off must record nothing")
	}
	rec.enable(true)
	outer, endOuter := (&spanCtx{rec: rec, parent: -1, op: 7}).span("outer")
	_, endInner := outer.span("inner")
	endInner()
	endOuter()
	got := rec.snapshot()
	if len(got) != 2 || got[1].Parent != got[0].ID || got[1].Op != 7 || got[0].End < got[1].End {
		t.Errorf("recorded %+v", got)
	}
	var none *spanCtx
	if sub, end := none.span("x"); sub != nil || end == nil {
		t.Error("a nil span context must hand out a no-op")
	}
}

// TestScalingRefusedOnOneCore: parallel.scaling_x is not reported from a
// machine that cannot show it.
func TestScalingNeedsTwoCores(t *testing.T) {
	rep := smoke(t, "lib-scale", "1", "1", false)
	v := rep.Metrics["parallel.scaling_x"].Value
	if cores := benchProcs(); (cores >= 2) != (v > 0) {
		t.Errorf("parallel.scaling_x = %v on %d cores", v, cores)
	}
}
