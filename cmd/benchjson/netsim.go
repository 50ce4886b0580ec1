package main

// The netsim suite pits the rewritten simulator core (typed events, run
// queue, pooled packet/message state) against the frozen pre-rewrite
// implementation in internal/netsim/legacy. Both sides run
// the same workloads, and the cross-check tests guarantee they produce
// bit-identical statistics, so the ns/op ratio is a pure implementation
// speedup — no modeling change hides in it.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/netsim"
	"repro/internal/netsim/legacy"
	"repro/internal/topology"
)

// netsimCase is one workload with a legacy and a current implementation.
type netsimCase struct {
	name      string
	baseline  func(b *testing.B)
	optimized func(b *testing.B)
	events    int64 // engine events dispatched per op on the optimized side
	// baseEvents is the baseline side's event count when it differs from
	// the optimized side (wormhole cases, whose flit events have no legacy
	// counterpart); 0 means both sides dispatch `events`.
	baseEvents int64
}

// timerEngine is what engineCase needs of either engine.
type timerEngine interface {
	Schedule(at float64, fn func())
	After(delay float64, fn func())
	Run() float64
}

// engineCase measures raw scheduler throughput: pending self-rescheduling
// timers dispatching total events. With the fixed 1 µs period the timers
// started ten slots apart keep meeting on one timestamp, the tie-rich
// stream a simulator produces; tiefree draws every gap from a seeded
// exponential instead, so no two events share a time and every event
// costs the run queue a heap key: its worst case, and the stream a
// calendar queue should win at depth.
func engineCase(name string, pending, total int, tiefree bool) netsimCase {
	c := netsimCase{name: fmt.Sprintf("Engine/%s", name), events: int64(total)}
	drive := func(eng timerEngine) {
		gap := func() float64 { return 1e-6 }
		if tiefree {
			rng := rand.New(rand.NewSource(1))
			gap = func() float64 { return rng.ExpFloat64() * 1e-6 }
		}
		left := total - pending
		var tick func()
		tick = func() {
			if left > 0 {
				left--
				eng.After(gap(), tick)
			}
		}
		for j := 0; j < pending; j++ {
			eng.Schedule(float64(j)*1e-7, tick)
		}
		eng.Run()
	}
	c.baseline = func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			drive(&legacy.Engine{})
		}
	}
	c.optimized = func(b *testing.B) {
		eng := &netsim.Engine{}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			eng.Reset()
			drive(eng)
		}
	}
	return c
}

// hotspotConfig is the packet-dense benchmark scenario: an 8x8 torus
// where every node sends `load` 4 KB messages (16 packets each) across
// the machine, saturating links near the hotspot diagonal.
func hotspotWorkload(load int) (sends func(send func(src, dst int, bytes float64))) {
	return func(send func(src, dst int, bytes float64)) {
		for a := 0; a < 64; a++ {
			for d := 1; d <= load; d++ {
				send(a, (a+d*7)%64, 4096)
			}
		}
	}
}

func hotspotCase(name string, load int, buffered bool) netsimCase {
	to := topology.MustTorus(8, 8)
	work := hotspotWorkload(load)
	buf := 0
	if buffered {
		buf = 4
	}
	c := netsimCase{name: name}

	// Count events once on the current engine; the legacy engine schedules
	// the identical event sequence (that is the cross-check contract).
	{
		eng := &netsim.Engine{}
		net, err := netsim.NewNetwork(eng, netsim.Config{
			Topology: to, LinkBandwidth: 1e8, LinkLatency: 1e-7,
			PacketSize: 256, BufferPackets: buf,
		})
		if err != nil {
			panic(err)
		}
		work(func(s, d int, bytes float64) { net.Send(s, d, bytes, nil) })
		eng.Run()
		c.events = eng.Processed()
	}

	c.baseline = func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			eng := &legacy.Engine{}
			net, err := legacy.NewNetwork(eng, legacy.Config{
				Topology: to, LinkBandwidth: 1e8, LinkLatency: 1e-7,
				PacketSize: 256, BufferPackets: buf,
			})
			if err != nil {
				b.Fatal(err)
			}
			work(func(s, d int, bytes float64) { net.Send(s, d, bytes, nil) })
			eng.Run()
		}
	}
	c.optimized = func(b *testing.B) {
		eng := &netsim.Engine{}
		net, err := netsim.NewNetwork(eng, netsim.Config{
			Topology: to, LinkBandwidth: 1e8, LinkLatency: 1e-7,
			PacketSize: 256, BufferPackets: buf,
		})
		if err != nil {
			b.Fatal(err)
		}
		send := func(s, d int, bytes float64) { net.Send(s, d, bytes, nil) }
		run := func() {
			eng.Reset()
			work(send)
			eng.Run()
		}
		// Warm pools and queue storage. Two runs are required: the first
		// grows the pools to the peak in-flight population, but storage
		// freed in a different order can still regrow once on the second
		// pass. Steady state (0 allocs/op) starts at run three.
		run()
		run()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			run()
		}
	}
	return c
}

// wormholeCase measures the flit-level mode against the packet model on
// the same workload. There is no legacy wormhole, so "baseline" here is
// the current engine in packet mode — the ratio prices the extra
// fidelity (one event per flit per hop) rather than an implementation
// rewrite, and the events_per_sec columns stay honest per side.
func wormholeCase(name string, load int) netsimCase {
	to := topology.MustTorus(8, 8)
	work := hotspotWorkload(load)
	packetCfg := netsim.Config{
		Topology: to, LinkBandwidth: 1e8, LinkLatency: 1e-7, PacketSize: 1024,
	}
	wormCfg := packetCfg
	wormCfg.Mode = netsim.ModeWormhole
	wormCfg.FlitSize = 64
	c := netsimCase{name: name}

	count := func(cfg netsim.Config) int64 {
		eng := &netsim.Engine{}
		net, err := netsim.NewNetwork(eng, cfg)
		if err != nil {
			panic(err)
		}
		work(func(s, d int, bytes float64) { net.Send(s, d, bytes, nil) })
		eng.Run()
		return eng.Processed()
	}
	c.events = count(wormCfg)
	c.baseEvents = count(packetCfg)

	bench := func(cfg netsim.Config) func(b *testing.B) {
		return func(b *testing.B) {
			eng := &netsim.Engine{}
			net, err := netsim.NewNetwork(eng, cfg)
			if err != nil {
				b.Fatal(err)
			}
			send := func(s, d int, bytes float64) { net.Send(s, d, bytes, nil) }
			run := func() {
				eng.Reset()
				work(send)
				eng.Run()
			}
			// Two warm-up runs: see hotspotCase — steady state starts at
			// run three.
			run()
			run()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
		}
	}
	c.baseline = bench(packetCfg)
	c.optimized = bench(wormCfg)
	return c
}

func netsimCases(quick bool) []netsimCase {
	cs := []netsimCase{
		engineCase("sparse", 64, 100_000, false),
		engineCase("dense", 16384, 100_000, false),
		engineCase("tiefree/pending=1024", 1024, 200_000, true),
		engineCase("tiefree/pending=16384", 16384, 200_000, true),
		hotspotCase("Hotspot/load=4", 4, false),
		hotspotCase("Hotspot/load=16", 16, false),
		hotspotCase("Buffered/load=8", 8, true),
		wormholeCase("Wormhole/load=4", 4),
	}
	if !quick {
		cs = append(cs,
			hotspotCase("Hotspot/load=63", 63, false),
			hotspotCase("Buffered/load=32", 32, true),
			wormholeCase("Wormhole/load=16", 16),
		)
	}
	return cs
}

// smokeNetsimCases is the CI smoke subset: one engine case plus one case
// per zero-alloc family (packet, buffered, wormhole), so the smoke run
// both catches a broken bench path and enforces the steady-state
// zero-allocation contract on every hot path.
func smokeNetsimCases() []netsimCase {
	return []netsimCase{
		engineCase("sparse", 64, 10_000, false),
		hotspotCase("Hotspot/load=2", 2, false),
		hotspotCase("Buffered/load=2", 2, true),
		wormholeCase("Wormhole/load=2", 2),
	}
}

// zeroAllocPrefixes names the case families whose optimized side must be
// allocation-free in steady state: the packet, buffered, and wormhole hot
// paths run entirely on pooled state after warm-up. Engine/* cases are
// excluded — their workload allocates a tick closure per event by design.
//
// The //lint:hotpath annotations in internal/netsim and internal/parallel
// declare the same contract statically; cmd/benchjson/drift_test.go keeps
// the two lists in sync.
var zeroAllocPrefixes = []string{"Hotspot/", "Buffered/", "Wormhole/"}

// zeroAllocViolations returns a description per optimized result that
// belongs to a zero-alloc family yet allocated.
func zeroAllocViolations(results []Result) []string {
	var out []string
	for _, r := range results {
		if r.Mode != "optimized" || r.AllocsPerOp == 0 {
			continue
		}
		for _, p := range zeroAllocPrefixes {
			if len(r.Name) >= len(p) && r.Name[:len(p)] == p {
				out = append(out, fmt.Sprintf("%s: %d allocs/op (want 0)", r.Name, r.AllocsPerOp))
				break
			}
		}
	}
	return out
}

// runNetsimSuite measures every case in both modes and returns baseline
// results followed by optimized ones, with speedups and events/sec filled
// in on the optimized half. smoke selects the tiny CI subset.
func runNetsimSuite(quick, smoke bool) []Result {
	cs := netsimCases(quick)
	if smoke {
		cs = smokeNetsimCases()
	}
	measure := func(mode string, run func(c netsimCase) func(b *testing.B)) []Result {
		var out []Result
		for _, c := range cs {
			r := testing.Benchmark(run(c))
			res := Result{
				Name:        c.name,
				Mode:        mode,
				GOMAXPROCS:  1, // the simulator core is single-threaded by design
				NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
				BytesPerOp:  r.AllocedBytesPerOp(),
				AllocsPerOp: r.AllocsPerOp(),
				Iterations:  r.N,
			}
			events := c.events
			if mode == "baseline" && c.baseEvents > 0 {
				events = c.baseEvents
			}
			if res.NsPerOp > 0 {
				res.EventsPerSec = float64(events) / (res.NsPerOp * 1e-9)
			}
			out = append(out, res)
		}
		return out
	}
	baseline := measure("baseline", func(c netsimCase) func(*testing.B) { return c.baseline })
	optimized := measure("optimized", func(c netsimCase) func(*testing.B) { return c.optimized })
	for i := range optimized {
		if base := baseline[i].NsPerOp; base > 0 && optimized[i].NsPerOp > 0 {
			optimized[i].Speedup = base / optimized[i].NsPerOp
		}
	}
	return append(baseline, optimized...)
}

// keepOptimizedAsParent turns the optimized rows of the recording about
// to be replaced at path into mode "parent" rows of this one, placed
// before the optimized rows: what the previous commit measured, which no
// later run can measure again. Re-record on the parent commit first when
// the box has changed. A missing or unreadable file keeps nothing.
func keepOptimizedAsParent(path string, results []Result) []Result {
	old, ok := readReport(path)
	if !ok {
		return results
	}
	var out []Result
	for _, r := range results {
		if r.Mode == "baseline" {
			out = append(out, r)
		}
	}
	for _, r := range old.Results {
		if r.Mode == "optimized" {
			r.Mode = "parent"
			out = append(out, r)
		}
	}
	for _, r := range results {
		if r.Mode != "baseline" {
			out = append(out, r)
		}
	}
	return out
}
