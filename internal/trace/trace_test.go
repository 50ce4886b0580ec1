package trace

import (
	"bytes"
	"math"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/taskgraph"
	"repro/internal/topology"
)

func jacobiProgram(t *testing.T, side, iters int, msgBytes, compute float64) *Program {
	t.Helper()
	g := taskgraph.Mesh2D(side, side, msgBytes)
	p, err := FromTaskGraph(g, iters, compute)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func identityMapping(n int) []int {
	m := make([]int, n)
	for i := range m {
		m[i] = i
	}
	return m
}

func TestFromTaskGraphSymmetric(t *testing.T) {
	p := jacobiProgram(t, 4, 10, 1000, 1e-6)
	if p.NumTasks() != 16 || p.Iterations != 10 {
		t.Fatalf("program shape wrong: %d tasks, %d iters", p.NumTasks(), p.Iterations)
	}
	// Corner task sends 2 messages, interior 4.
	if len(p.Dest[0]) != 2 {
		t.Errorf("corner sends %d, want 2", len(p.Dest[0]))
	}
	if len(p.Dest[5]) != 4 {
		t.Errorf("interior sends %d, want 4", len(p.Dest[5]))
	}
	expect := p.expectedPerIteration()
	for v := range p.Dest {
		if expect[v] != len(p.Dest[v]) {
			t.Errorf("task %d: expects %d, sends %d (symmetric program)", v, expect[v], len(p.Dest[v]))
		}
	}
}

func TestProgramValidateErrors(t *testing.T) {
	good := jacobiProgram(t, 3, 5, 100, 1e-6)
	cases := map[string]func(p *Program){
		"no iterations":    func(p *Program) { p.Iterations = 0 },
		"negative compute": func(p *Program) { p.ComputeTime = -1 },
		"self destination": func(p *Program) { p.Dest[0][0] = 0 },
		"bad destination":  func(p *Program) { p.Dest[0][0] = 99 },
		"negative bytes":   func(p *Program) { p.Bytes[0][0] = -5 },
		"ragged":           func(p *Program) { p.Bytes[0] = p.Bytes[0][:1] },
	}
	for name, mutate := range cases {
		p := *good
		p.Dest = make([][]int32, len(good.Dest))
		p.Bytes = make([][]float64, len(good.Bytes))
		for i := range good.Dest {
			p.Dest[i] = append([]int32(nil), good.Dest[i]...)
			p.Bytes[i] = append([]float64(nil), good.Bytes[i]...)
		}
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: want error", name)
		}
	}
}

func TestGobRoundTrip(t *testing.T) {
	p := jacobiProgram(t, 4, 7, 512, 2e-6)
	var buf bytes.Buffer
	if err := p.WriteGob(&buf); err != nil {
		t.Fatal(err)
	}
	q, err := ReadGob(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if q.Name != p.Name || q.Iterations != p.Iterations || q.NumTasks() != p.NumTasks() {
		t.Errorf("round trip mismatch: %+v", q)
	}
}

func TestReplayCompletesAllIterations(t *testing.T) {
	p := jacobiProgram(t, 4, 20, 1000, 1e-6)
	res, err := Replay(p, identityMapping(16), netsim.Config{
		Topology: topology.MustTorus(4, 4), LinkBandwidth: 1e8, LinkLatency: 1e-7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.CompletionTime <= 0 {
		t.Error("completion time not positive")
	}
	// Messages: 19 sending iterations (last iteration does not send) ×
	// Σ out-degree (2*2*4*3 = 48).
	wantMsgs := 19 * 48
	if res.Net.MessagesDelivered != wantMsgs {
		t.Errorf("delivered %d, want %d", res.Net.MessagesDelivered, wantMsgs)
	}
}

func TestReplayComputeOnlyLowerBound(t *testing.T) {
	// With near-infinite bandwidth, completion ~= iterations × compute.
	p := jacobiProgram(t, 4, 50, 10, 1e-3)
	res, err := Replay(p, identityMapping(16), netsim.Config{
		Topology: topology.MustTorus(4, 4), LinkBandwidth: 1e12,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := 50 * 1e-3
	if res.CompletionTime < want || res.CompletionTime > want*1.01 {
		t.Errorf("completion = %v, want ~%v", res.CompletionTime, want)
	}
}

func TestReplayRejectsBadMapping(t *testing.T) {
	p := jacobiProgram(t, 3, 2, 10, 1e-6)
	cfg := netsim.Config{Topology: topology.MustMesh(3, 3), LinkBandwidth: 1e6}
	if _, err := Replay(p, []int{0, 1}, cfg); err == nil {
		t.Error("want error for short mapping")
	}
	bad := identityMapping(9)
	bad[0] = 99
	if _, err := Replay(p, bad, cfg); err == nil {
		t.Error("want error for out-of-range processor")
	}
}

func TestReplayMultipleTasksPerProcessorSerializes(t *testing.T) {
	// All 9 tasks on processor 0 of a 3x3 mesh: compute must serialize,
	// so one iteration costs 9 × computeTime.
	p := jacobiProgram(t, 3, 5, 1, 1e-3)
	m := make([]int, 9) // all on processor 0
	res, err := Replay(p, m, netsim.Config{
		Topology: topology.MustMesh(3, 3), LinkBandwidth: 1e12,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := 5 * 9 * 1e-3
	if math.Abs(res.CompletionTime-want) > 1e-6 {
		t.Errorf("completion = %v, want %v (serialized compute)", res.CompletionTime, want)
	}
}

func TestReplayGoodMappingBeatsRandomUnderContention(t *testing.T) {
	// The paper's §5.3 conclusion: at constrained bandwidth, a
	// topology-aware mapping finishes well before a random one.
	g := taskgraph.Mesh2D(8, 8, 1e5)
	p, err := FromTaskGraph(g, 30, 1e-5)
	if err != nil {
		t.Fatal(err)
	}
	to := topology.MustTorus(4, 4, 4)
	cfg := netsim.Config{Topology: to, LinkBandwidth: 1e8, LinkLatency: 1e-7}

	mTopo, err := core.TopoLB{}.Map(g, to)
	if err != nil {
		t.Fatal(err)
	}
	mRand, err := core.Random{Seed: 3}.Map(g, to)
	if err != nil {
		t.Fatal(err)
	}
	rTopo, err := Replay(p, mTopo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rRand, err := Replay(p, mRand, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rTopo.CompletionTime >= rRand.CompletionTime {
		t.Errorf("TopoLB completion %v >= random %v", rTopo.CompletionTime, rRand.CompletionTime)
	}
	if rTopo.Net.AvgLatency >= rRand.Net.AvgLatency {
		t.Errorf("TopoLB avg latency %v >= random %v", rTopo.Net.AvgLatency, rRand.Net.AvgLatency)
	}
}

func TestReplayDeterministic(t *testing.T) {
	p := jacobiProgram(t, 4, 10, 5000, 1e-6)
	cfg := netsim.Config{Topology: topology.MustTorus(4, 4), LinkBandwidth: 1e7, LinkLatency: 1e-7}
	r1, err := Replay(p, identityMapping(16), cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Replay(p, identityMapping(16), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1.CompletionTime != r2.CompletionTime || r1.Net.AvgLatency != r2.Net.AvgLatency {
		t.Error("replay not deterministic")
	}
}

func TestHeterogeneousComputeTimes(t *testing.T) {
	p := jacobiProgram(t, 2, 10, 10, 1e-3)
	// One slow task dominates the run: all tasks finish when it does.
	times := make([]float64, 4)
	for i := range times {
		times[i] = 1e-4
	}
	times[0] = 5e-3
	p.ComputeTimes = times
	res, err := Replay(p, identityMapping(4), netsim.Config{
		Topology: topology.MustTorus(2, 2), LinkBandwidth: 1e12,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Lower bound: 10 iterations of the slow task.
	if res.CompletionTime < 10*5e-3-1e-9 {
		t.Errorf("completion %v below the slow task's serial time", res.CompletionTime)
	}
	// Validation catches bad shapes.
	p.ComputeTimes = times[:2]
	if err := p.Validate(); err == nil {
		t.Error("short ComputeTimes: want error")
	}
	p.ComputeTimes = []float64{1, 1, 1, -1}
	if err := p.Validate(); err == nil {
		t.Error("negative per-task time: want error")
	}
}

// TestReplayGoldenMiniSweep is a 9-replay miniature of the sim-sweep
// benchmark: the §5.3 Jacobi exchange under three mappings and all three
// contention models. Completion times and event counts were recorded at
// commit 60ad936, before the simulator's binary heap and calendar queue
// were replaced by the run queue; every word must reproduce at GOMAXPROCS
// {1, 2, 8}, on a fresh engine and on a reused one.
func TestReplayGoldenMiniSweep(t *testing.T) {
	g := taskgraph.Mesh2D(8, 8, 4e3)
	torus := topology.MustTorus(4, 4, 4)
	prog, err := FromTaskGraph(g, 3, 20e-6)
	if err != nil {
		t.Fatal(err)
	}
	mappers := []core.Strategy{core.Random{Seed: 1}, core.TopoLB{}, core.TopoCentLB{}}
	modes := []struct {
		name  string
		apply func(*netsim.Config)
	}{
		{"packet", func(*netsim.Config) {}},
		{"buffered", func(c *netsim.Config) { c.BufferPackets = 4 }},
		{"wormhole", func(c *netsim.Config) { c.Mode = netsim.ModeWormhole }},
	}
	golden := []struct {
		mode, mapper string
		completion   uint64 // math.Float64bits(CompletionTime)
		events       int64  // Engine.Processed()
	}{
		{"packet", "Random", 0x3f41b45d6a3e6241, 7153},
		{"packet", "TopoLB", 0x3f226054d46daaff, 3777},
		{"packet", "TopoCentLB", 0x3f226054d46daaff, 3777},
		{"buffered", "Random", 0x3f4501efc44899d3, 12321},
		{"buffered", "TopoLB", 0x3f226054d46daaff, 5569},
		{"buffered", "TopoCentLB", 0x3f226054d46daaff, 5569},
		{"wormhole", "Random", 0x3f501b6b96510f32, 84673},
		{"wormhole", "TopoLB", 0x3f227476ca61b88a, 30657},
		{"wormhole", "TopoCentLB", 0x3f227476ca61b88a, 30657},
	}
	mappings := make([][]int, len(mappers))
	for i, s := range mappers {
		if mappings[i], err = s.Map(g, torus); err != nil {
			t.Fatal(err)
		}
	}
	reused := &netsim.Engine{}
	for _, procs := range []int{1, 2, 8} {
		prev := runtime.GOMAXPROCS(procs)
		k := 0
		for _, mode := range modes {
			for i, s := range mappers {
				want := golden[k]
				k++
				if want.mode != mode.name || want.mapper != s.Name() {
					t.Fatalf("golden row %d is %s/%s, sweep is at %s/%s", k-1, want.mode, want.mapper, mode.name, s.Name())
				}
				cfg := netsim.Config{Topology: torus, LinkBandwidth: 1e8, LinkLatency: 100e-9, PacketSize: 1024}
				mode.apply(&cfg)
				for _, eng := range []*netsim.Engine{{}, reused} {
					r, err := ReplayOn(eng, prog, mappings[i], cfg)
					if err != nil {
						t.Fatal(err)
					}
					if got := math.Float64bits(r.CompletionTime); got != want.completion {
						t.Errorf("GOMAXPROCS=%d %s/%s: completion %#x (%v), golden %#x",
							procs, want.mode, want.mapper, got, r.CompletionTime, want.completion)
					}
					if eng.Processed() != want.events {
						t.Errorf("GOMAXPROCS=%d %s/%s: %d events, golden %d",
							procs, want.mode, want.mapper, eng.Processed(), want.events)
					}
				}
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}
