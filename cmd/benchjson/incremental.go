package main

// The incremental suite records the online remapping engine's headline
// claim: maintaining hop-bytes through core.IncrementalState costs
// O(deg(task)·log|E|) per delta, against the O(|E|) full
// core.HopBytes recompute an online loop would otherwise pay after
// every observation. "baseline" rows run the full recompute at each
// size; "optimized" rows apply one delta (load / comm / move mix) to a
// live state. RefineIncremental (from a fresh, all-dirty state: the cost
// of scoring every task once), SessionBatch (one steady-state delta batch
// of a live session: 32 drift deltas, clone into the retained spare,
// refine — the cost that follows what changed) and the end-to-end
// topomapd session delta→remap round trip have no one-shot counterpart;
// their "baseline" rows in the committed file are the same cases measured
// on the commit before the clean-bit memo and carried over from recording
// to recording (see keepRecordedBaselines). Every case runs at GOMAXPROCS
// 1 and 2: the engine is serial, so the two must agree.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/lbdb"
	"repro/internal/service"
	"repro/internal/taskgraph"
	"repro/internal/topology"
)

// incCase is one (task mesh, machine) size point: a gx×gy task mesh
// placed blockwise on a px×py torus.
type incCase struct {
	gx, gy, px, py int
}

func (c incCase) tasks() int { return c.gx * c.gy }

func (c incCase) name() string { return fmt.Sprintf("DeltaApply/n=%d", c.tasks()) }

func (c incCase) build() (*taskgraph.Graph, topology.Topology, []int) {
	g := taskgraph.Mesh2D(c.gx, c.gy, 1e5)
	to := topology.MustTorus(c.px, c.py)
	m := make([]int, g.NumVertices())
	for v := range m {
		m[v] = v % to.Nodes()
	}
	return g, to, m
}

func incrementalCases(quick bool) []incCase {
	cs := []incCase{{128, 128, 16, 16}} // 16384 tasks
	if !quick {
		// The 100k-task headline the acceptance criteria track.
		cs = append(cs, incCase{317, 317, 32, 32}) // 100489 tasks
	}
	return cs
}

// incDelta is one pre-generated mutation, so the benchmark loop does no
// RNG work.
type incDelta struct {
	kind int // 0 = load, 1 = comm, 2 = move
	a, b int
	val  float64
	proc int
}

// makeDeltas draws a deterministic mix of load, comm-edge, and move
// mutations over the graph's existing structure.
func makeDeltas(g *taskgraph.Graph, procs, n int) []incDelta {
	rng := rand.New(rand.NewSource(7))
	out := make([]incDelta, n)
	for i := range out {
		v := rng.Intn(g.NumVertices())
		switch i % 3 {
		case 0:
			out[i] = incDelta{kind: 0, a: v, val: float64(rng.Intn(100))}
		case 1:
			nbrs, _ := g.Neighbors(v)
			if len(nbrs) == 0 {
				out[i] = incDelta{kind: 0, a: v, val: 1}
				continue
			}
			out[i] = incDelta{kind: 1, a: v, b: int(nbrs[rng.Intn(len(nbrs))]), val: float64(1 + rng.Intn(1000000))}
		default:
			out[i] = incDelta{kind: 2, a: v, proc: rng.Intn(procs)}
		}
	}
	return out
}

func applyIncDelta(s *core.IncrementalState, d incDelta) error {
	switch d.kind {
	case 0:
		return s.SetLoad(d.a, d.val)
	case 1:
		return s.SetComm(d.a, d.b, d.val)
	default:
		return s.MoveTask(d.a, d.proc)
	}
}

// deltaApplyBaseline measures the full-recompute path: one
// core.HopBytes sweep over every edge, the per-observation cost without
// the incremental engine.
func deltaApplyBaseline(c incCase) benchCase {
	return benchCase{name: c.name(), run: func(b *testing.B) {
		g, to, m := c.build()
		core.HopBytes(g, to, m) // warm the distance matrix
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			core.HopBytes(g, to, m)
		}
	}}
}

// deltaApplyOptimized measures one O(deg) delta against the live state.
func deltaApplyOptimized(c incCase) benchCase {
	return benchCase{name: c.name(), run: func(b *testing.B) {
		g, to, m := c.build()
		s, err := core.NewIncrementalState(g, to, m)
		if err != nil {
			b.Fatal(err)
		}
		deltas := makeDeltas(g, to.Nodes(), 4096)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := applyIncDelta(s, deltas[i%len(deltas)]); err != nil {
				b.Fatal(err)
			}
		}
	}}
}

// refineIncrementalCase measures one budgeted refinement pass over a
// drifted state (optimized-only: the one-shot strategies solve a
// different problem and are benchmarked in the mapping suite).
func refineIncrementalCase(c incCase, budget int) benchCase {
	name := fmt.Sprintf("RefineIncremental/n=%d,budget=%d", c.tasks(), budget)
	return benchCase{name: name, run: func(b *testing.B) {
		g, to, m := c.build()
		s0, err := core.NewIncrementalState(g, to, m)
		if err != nil {
			b.Fatal(err)
		}
		for _, d := range makeDeltas(g, to.Nodes(), 2048) {
			if err := applyIncDelta(s0, d); err != nil {
				b.Fatal(err)
			}
		}
		opts := core.IncRefineOptions{MaxPasses: 1, MaxMigrations: budget}
		s := s0.Clone()
		s.RefineIncremental(opts) // warm-up
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			s = s0.CloneInto(s) // all-dirty again, and no garbage between runs
			b.StartTimer()
			s.RefineIncremental(opts)
		}
	}}
}

// sessionBatchCase measures one steady-state batch of a live session, as
// bench's session-stream drives it: a gx×gx 9-point stencil at unit load
// placed in blocks on a px×px torus, 32 deltas that re-measure a load or
// an edge volume, a clone built in the spare the last batch left, a
// budgeted two-pass refinement, and the service's adoption rule.
func sessionBatchCase(gx, px int) benchCase {
	const (
		batch     = 32
		threshold = 0.002
		warmup    = 64 // batches until the all-dirty first scan is history
	)
	opts := core.IncRefineOptions{MaxPasses: 2, MaxMigrations: 64}
	return benchCase{name: fmt.Sprintf("SessionBatch/n=%d", gx*gx), run: func(b *testing.B) {
		g := taskgraph.Stencil9(gx, gx, 1e5)
		m := make([]int, g.NumVertices())
		for x := 0; x < gx; x++ {
			for y := 0; y < gx; y++ {
				m[x*gx+y] = (x*px/gx)*px + y*px/gx
			}
		}
		st, err := core.NewIncrementalState(g, topology.MustTorus(px, px), m)
		if err != nil {
			b.Fatal(err)
		}
		var edges [][2]int
		for v := range m {
			if err := st.SetLoad(v, 1); err != nil {
				b.Fatal(err)
			}
			adj, _ := g.Neighbors(v)
			for _, u := range adj {
				if int(u) > v {
					edges = append(edges, [2]int{v, int(u)})
				}
			}
		}
		rng := rand.New(rand.NewSource(20060425))
		var spare *core.IncrementalState
		step := func() {
			for k := 0; k < batch; k++ {
				var err error
				if rng.Intn(2) == 0 {
					err = st.SetLoad(rng.Intn(len(m)), 0.5+rng.Float64())
				} else {
					e := edges[rng.Intn(len(edges))]
					err = st.SetComm(e[0], e[1], 1e5*(0.25+3.75*rng.Float64()))
				}
				if err != nil {
					b.Fatal(err)
				}
			}
			refined := st.CloneInto(spare)
			res := refined.RefineIncremental(opts)
			gain := res.HopBytesBefore - res.HopBytesAfter
			if res.Migrations > 0 && gain > threshold*res.HopBytesBefore {
				refined.SetAnchor()
				st, spare = refined, st
			} else {
				spare = refined
			}
		}
		for i := 0; i < warmup; i++ {
			step()
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			step()
		}
	}}
}

// sessionBatchMaxAllocs bounds a SessionBatch row: RefineIncremental's
// per-call scratch and nothing per task. A fork re-introduced into the
// candidate scan allocates per task visit and lands orders of magnitude
// above it.
const sessionBatchMaxAllocs = 8

// incrementalAllocViolations returns one message per SessionBatch row
// over its allocation bound.
func incrementalAllocViolations(results []Result) []string {
	var out []string
	for _, r := range results {
		if r.Mode == "optimized" && strings.HasPrefix(r.Name, "SessionBatch/") && r.AllocsPerOp > sessionBatchMaxAllocs {
			out = append(out, fmt.Sprintf("%s at GOMAXPROCS %d: %d allocs/op, bound %d", r.Name, r.GOMAXPROCS, r.AllocsPerOp, sessionBatchMaxAllocs))
		}
	}
	return out
}

// sessionRemapCase measures the end-to-end topomapd session round trip:
// POST a delta batch, apply it, speculatively refine, and (maybe) push.
func sessionRemapCase(tasks, procs int) benchCase {
	name := fmt.Sprintf("SessionRemap/n=%d", tasks)
	return benchCase{name: name, run: func(b *testing.B) {
		srv := service.NewServer(service.Config{MaxTasks: tasks + 16})
		defer srv.Close()
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()

		rng := rand.New(rand.NewSource(3))
		db := &lbdb.Database{NumProcs: procs}
		for i := 0; i < tasks; i++ {
			db.Chares = append(db.Chares, lbdb.ChareStats{Load: float64(rng.Intn(10)), Proc: i % procs})
		}
		for i := 0; i < tasks; i++ {
			j := (i + 1) % tasks
			db.Comms = append(db.Comms, comm(i, j, float64(1+rng.Intn(100000))))
		}
		var spec bytes.Buffer
		fmt.Fprintf(&spec, `{"topology":"torus:%d,%d","db":`, isqrt(procs), procs/isqrt(procs))
		if err := db.DumpJSON(&spec); err != nil {
			b.Fatal(err)
		}
		spec.WriteString(`,"migration_budget":64,"refine_passes":1}`)
		resp, err := http.Post(ts.URL+"/v1/sessions", "application/json", &spec)
		if err != nil {
			b.Fatal(err)
		}
		//lint:ignore errcheck benchmark teardown; a failed close cannot affect the measurement
		resp.Body.Close()
		if resp.StatusCode != 201 {
			b.Fatalf("session create: %d", resp.StatusCode)
		}

		batches := make([][]byte, 64)
		for i := range batches {
			var buf bytes.Buffer
			fmt.Fprintf(&buf, `{"deltas":[{"kind":"load","task":%d,"load":%d},{"kind":"comm","task":%d,"other":%d,"bytes":%d}]}`,
				rng.Intn(tasks), rng.Intn(20), i%tasks, (i+1)%tasks, 1+rng.Intn(1000000))
			batches[i] = buf.Bytes()
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			resp, err := http.Post(ts.URL+"/v1/sessions/s1/deltas", "application/json",
				bytes.NewReader(batches[i%len(batches)]))
			if err != nil {
				b.Fatal(err)
			}
			//lint:ignore errcheck benchmark teardown; a failed close cannot affect the measurement
			resp.Body.Close()
			if resp.StatusCode != 200 {
				b.Fatalf("deltas: %d", resp.StatusCode)
			}
		}
	}}
}

func comm(a, b int, bytes float64) lbdb.Comm {
	if a > b {
		a, b = b, a
	}
	return lbdb.Comm{From: int32(a), To: int32(b), Bytes: bytes}
}

func isqrt(n int) int {
	r := 1
	for r*r < n {
		r++
	}
	return r
}

// runIncrementalSuite runs every case at GOMAXPROCS 1 and 2 (a smoke run:
// at the ambient GOMAXPROCS only, so CI picks the width).
func runIncrementalSuite(quick, smoke bool) []Result {
	if smoke {
		return runIncrementalCases(quick, smoke)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var out []Result
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		out = append(out, runIncrementalCases(quick, smoke)...)
	}
	return out
}

// runIncrementalCases pairs each DeltaApply optimized row with its
// full-recompute baseline by name; refine and session rows are
// optimized-only.
func runIncrementalCases(quick, smoke bool) []Result {
	cs := incrementalCases(quick || smoke)
	if smoke {
		cs = []incCase{{64, 64, 8, 8}} // 4096 tasks
	}
	var baseline, optimized []Result
	// Median of three runs: the recording box is shared, and one noisy
	// second must not decide whether GOMAXPROCS 2 reads slower than 1.
	nsPerOp := func(r testing.BenchmarkResult) float64 { return float64(r.T.Nanoseconds()) / float64(r.N) }
	measure := func(mode string, c benchCase) Result {
		runs := []testing.BenchmarkResult{testing.Benchmark(c.run)}
		if !smoke {
			runs = append(runs, testing.Benchmark(c.run), testing.Benchmark(c.run))
			sort.Slice(runs, func(i, j int) bool { return nsPerOp(runs[i]) < nsPerOp(runs[j]) })
		}
		r := runs[len(runs)/2]
		return Result{
			Name:        c.name,
			Mode:        mode,
			GOMAXPROCS:  runtime.GOMAXPROCS(0),
			NsPerOp:     nsPerOp(r),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
			Iterations:  r.N,
		}
	}
	for _, c := range cs {
		baseline = append(baseline, measure("baseline", deltaApplyBaseline(c)))
		opt := measure("optimized", deltaApplyOptimized(c))
		if base := baseline[len(baseline)-1].NsPerOp; base > 0 && opt.NsPerOp > 0 {
			opt.Speedup = base / opt.NsPerOp
		}
		optimized = append(optimized, opt)
	}
	budgets := []int{64}
	if !quick && !smoke {
		budgets = []int{0, 64, -1}
	}
	for _, c := range cs {
		for _, budget := range budgets {
			optimized = append(optimized, measure("optimized", refineIncrementalCase(c, budget)))
		}
	}
	optimized = append(optimized, measure("optimized", sessionBatchCase(64, 16)))
	if !quick && !smoke {
		optimized = append(optimized, measure("optimized", sessionBatchCase(128, 16)))
	}
	sessTasks, sessProcs := 4096, 64
	if smoke {
		sessTasks, sessProcs = 1024, 16
	}
	optimized = append(optimized, measure("optimized", sessionRemapCase(sessTasks, sessProcs)))
	return append(baseline, optimized...)
}

// readReport loads the recording at path; ok is false when there is none
// or it does not parse.
func readReport(path string) (rep Report, ok bool) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return Report{}, false
	}
	return rep, json.Unmarshal(buf, &rep) == nil
}

// keepRecordedBaselines carries the baseline rows of the report already
// at path into results when this run measured no baseline for the same
// case and width — the rows recorded once on an earlier commit, which no
// later run can measure again — and fills the speedup of each optimized
// row that has such a counterpart. A missing or unreadable file keeps
// nothing.
func keepRecordedBaselines(path string, results []Result) []Result {
	old, ok := readReport(path)
	if !ok {
		return results
	}
	type key struct {
		name  string
		procs int
	}
	measured := map[key]bool{}
	for _, r := range results {
		if r.Mode == "baseline" {
			measured[key{r.Name, r.GOMAXPROCS}] = true
		}
	}
	kept := map[key]float64{}
	var out []Result
	for _, r := range old.Results {
		if k := (key{r.Name, r.GOMAXPROCS}); r.Mode == "baseline" && !measured[k] {
			out = append(out, r)
			kept[k] = r.NsPerOp
		}
	}
	for _, r := range results {
		if base := kept[key{r.Name, r.GOMAXPROCS}]; r.Mode == "optimized" && base > 0 && r.NsPerOp > 0 {
			r.Speedup = base / r.NsPerOp
		}
		out = append(out, r)
	}
	return out
}
