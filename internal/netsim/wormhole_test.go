package netsim_test

// Wormhole-mode validation, pinned two ways per the roadmap: (1) in the
// uncongested regime the flit pipeline must converge to the packet
// model's latencies (tolerance-based — the two models accumulate the
// same arithmetic in different event orders), and (2) the determinism
// contract — Stats bit-identical to the recorded golden words across
// GOMAXPROCS and Engine.Reset reuse — extends to the new mode.
// Saturation tests check the model's physics: head-of-line blocking makes
// contention *worse* than store-and-forward queueing, and a
// topology-aware mapping recovers more of it.

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/taskgraph"
	"repro/internal/topology"
	"repro/internal/trace"
)

// runOnce drives one traffic pattern through a fresh network and returns
// its stats.
func runOnce(t *testing.T, topo topology.Router, cfg netsim.Config, send func(func(src, dst int, bytes float64))) netsim.Stats {
	t.Helper()
	eng := &netsim.Engine{}
	cfg.Topology = topo
	net, err := netsim.NewNetwork(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	send(func(src, dst int, bytes float64) { net.Send(src, dst, bytes, nil) })
	eng.Run()
	return net.Stats()
}

// TestWormholeUncongestedMatchesPacket is the validation anchor: a lone
// message of L flits over h hops pipelines in (L-1)*tf + h*(tf+lat),
// which is exactly the packet model's latency with PacketSize ==
// FlitSize. With no contention the two models must agree within float
// tolerance on every topology, including torus routes that cross the
// dateline.
func TestWormholeUncongestedMatchesPacket(t *testing.T) {
	const flit = 64
	cases := []struct {
		name     string
		topo     topology.Router
		src, dst int
		bytes    float64
	}{
		{"mesh-2d-long", topology.MustMesh(8, 8), 0, 63, 4096},
		{"mesh-2d-short", topology.MustMesh(8, 8), 9, 10, 100},
		{"torus-2d-wrap", topology.MustTorus(4, 4), 0, 12, 2048}, // crosses the seam
		{"torus-3d", topology.MustTorus(4, 4, 4), 5, 62, 8192},
		{"ring-dateline", topology.MustTorus(6), 4, 0, 1000}, // wraparound hop
		{"single-flit", topology.MustMesh(4, 4), 0, 15, 1},
		{"uneven-split", topology.MustTorus(4, 4), 1, 14, 1000}, // 1000/64 leaves a remainder
	}
	for _, c := range cases {
		send := func(send func(int, int, float64)) { send(c.src, c.dst, c.bytes) }
		packet := runOnce(t, c.topo, netsim.Config{
			LinkBandwidth: 1e6, LinkLatency: 100e-9, SendOverhead: 1e-6,
			PacketSize: flit,
		}, send)
		worm := runOnce(t, c.topo, netsim.Config{
			LinkBandwidth: 1e6, LinkLatency: 100e-9, SendOverhead: 1e-6,
			Mode: netsim.ModeWormhole, FlitSize: flit,
		}, send)
		if worm.MessagesDelivered != 1 || packet.MessagesDelivered != 1 {
			t.Fatalf("%s: delivered wormhole=%d packet=%d, want 1", c.name,
				worm.MessagesDelivered, packet.MessagesDelivered)
		}
		diff := math.Abs(worm.AvgLatency - packet.AvgLatency)
		if diff > 1e-9*packet.AvgLatency {
			t.Errorf("%s: uncongested wormhole latency %.12g, packet model %.12g (rel diff %.3g)",
				c.name, worm.AvgLatency, packet.AvgLatency, diff/packet.AvgLatency)
		}
		if math.Abs(worm.MaxLinkBusy-packet.MaxLinkBusy) > 1e-9*packet.MaxLinkBusy {
			t.Errorf("%s: MaxLinkBusy wormhole %.12g, packet %.12g",
				c.name, worm.MaxLinkBusy, packet.MaxLinkBusy)
		}
	}
}

// TestWormholeSaturationHotspot checks the contention physics the mode
// exists for: under a heavy hotspot, a stalled worm holds every upstream
// channel it occupies, so wormhole latency must come out *higher* than
// the packet model's single-queue store-and-forward delay on the same
// workload.
func TestWormholeSaturationHotspot(t *testing.T) {
	topo := topology.MustTorus(8, 8)
	send := func(send func(int, int, float64)) {
		for i := 1; i < 64; i++ {
			send(i, 0, 64<<10)
		}
	}
	packet := runOnce(t, topo, netsim.Config{
		LinkBandwidth: 1e8, LinkLatency: 100e-9, PacketSize: 512,
	}, send)
	worm := runOnce(t, topo, netsim.Config{
		LinkBandwidth: 1e8, LinkLatency: 100e-9, PacketSize: 512,
		Mode: netsim.ModeWormhole, FlitSize: 64,
	}, send)
	if worm.MessagesDelivered != packet.MessagesDelivered {
		t.Fatalf("delivered wormhole=%d packet=%d", worm.MessagesDelivered, packet.MessagesDelivered)
	}
	if worm.AvgLatency <= packet.AvgLatency {
		t.Errorf("saturated hotspot: wormhole AvgLatency %.6g <= packet %.6g; head-of-line blocking should cost extra",
			worm.AvgLatency, packet.AvgLatency)
	}
	if worm.MaxLatency <= packet.MaxLatency {
		t.Errorf("saturated hotspot: wormhole MaxLatency %.6g <= packet %.6g",
			worm.MaxLatency, packet.MaxLatency)
	}
}

// TestWormholeTopoLBBeatsRandom replays the paper's core claim at flit
// fidelity: a TopoLB mapping of a near-neighbor application must beat
// random placement on average wormhole latency, because shorter routes
// mean shorter worms spanning fewer channels.
func TestWormholeTopoLBBeatsRandom(t *testing.T) {
	g := taskgraph.Mesh2D(8, 8, 4e3)
	torus := topology.MustTorus(4, 4, 4)
	prog, err := trace.FromTaskGraph(g, 30, 20e-6)
	if err != nil {
		t.Fatal(err)
	}
	mT, err := (core.TopoLB{}).Map(g, torus)
	if err != nil {
		t.Fatal(err)
	}
	mR, err := (core.Random{Seed: 1}).Map(g, torus)
	if err != nil {
		t.Fatal(err)
	}
	cfg := netsim.Config{
		Topology:      torus,
		LinkBandwidth: 1e8,
		LinkLatency:   100e-9,
		PacketSize:    1024,
		Mode:          netsim.ModeWormhole,
		FlitSize:      128,
	}
	resT, err := trace.Replay(prog, mT, cfg)
	if err != nil {
		t.Fatal(err)
	}
	resR, err := trace.Replay(prog, mR, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if resT.Net.AvgLatency >= resR.Net.AvgLatency {
		t.Errorf("wormhole replay: TopoLB AvgLatency %.6g >= random %.6g; topology-aware mapping should win",
			resT.Net.AvgLatency, resR.Net.AvgLatency)
	}
}

// wormholeDeterminismWorkloads covers the mode's state machine broadly:
// dense hotspot (stall/resume, header queues), all-to-all with multi-worm
// messages, and a ring whose routes cross the dateline VC switch.
func wormholeDeterminismWorkloads() []workload {
	return []workload{
		{
			name: "wormhole/hotspot-2d",
			topo: topology.MustTorus(8, 8),
			cfg: func() netsim.Config {
				return netsim.Config{LinkBandwidth: 1e8, LinkLatency: 100e-9,
					Mode: netsim.ModeWormhole, PacketSize: 1024, FlitSize: 64, CollectLatencies: true}
			},
			send: func(send func(int, int, float64)) {
				for i := 0; i < 256; i++ {
					send(i%64, 21, 8192)
				}
			},
		},
		{
			name: "wormhole/all-to-all-3d",
			topo: topology.MustTorus(4, 4, 4),
			cfg: func() netsim.Config {
				return netsim.Config{LinkBandwidth: 1e6, LinkLatency: 1e-7, SendOverhead: 1e-6,
					Mode: netsim.ModeWormhole, FlitSize: 256, FlitBuffer: 2}
			},
			send: func(send func(int, int, float64)) {
				for a := 0; a < 64; a++ {
					for d := 1; d <= 4; d++ {
						send(a, (a+d*11)%64, 2000)
					}
				}
			},
		},
		{
			name: "wormhole/ring-dateline",
			topo: topology.MustTorus(6),
			cfg: func() netsim.Config {
				return netsim.Config{LinkBandwidth: 1e6,
					Mode: netsim.ModeWormhole, FlitSize: 32, CollectLatencies: true}
			},
			send: func(send func(int, int, float64)) {
				for i := 0; i < 6; i++ {
					send(i, (i+2)%6, 1000)
					send(i, (i+3)%6, 500)
				}
			},
		},
	}
}

// TestWormholeDeterminism extends the bit-identical contract to wormhole
// mode, which the reference network does not model: every workload must
// reproduce the golden Stats words, event count and latency stream at
// GOMAXPROCS {1,2,8}.
func TestWormholeDeterminism(t *testing.T) {
	checkGolden(t, wormholeDeterminismWorkloads())
}

// TestWormholeEventsPerRun pins the mechanism, not just the result: on
// the dense hotspot the links step in lock-step, so the run queue must
// find at least 2.5 events per heap key.
func TestWormholeEventsPerRun(t *testing.T) {
	_, eng := runNew(t, wormholeDeterminismWorkloads()[0])
	events, runs := eng.Processed(), netsim.RunsOpened(eng)
	if float64(events) < 2.5*float64(runs) {
		t.Errorf("%d events in %d runs (%.2f per run), want at least 2.5",
			events, runs, float64(events)/float64(runs))
	}
}

// TestWormholeResetReuse checks that an engine arena recycled across
// wormhole simulations reproduces the first run bit for bit, and that a
// network whose routes grow longer between runs re-sizes its worms' hop
// records to the new length and then runs without allocating.
func TestWormholeResetReuse(t *testing.T) {
	w := wormholeDeterminismWorkloads()[0]
	eng := &netsim.Engine{}
	var first []uint64
	for rep := 0; rep < 3; rep++ {
		eng.Reset()
		cfg := w.cfg()
		cfg.Topology = w.topo
		net, err := netsim.NewNetwork(eng, cfg)
		if err != nil {
			t.Fatal(err)
		}
		w.send(func(src, dst int, bytes float64) { net.Send(src, dst, bytes, nil) })
		eng.Run()
		bits := netsim.StatsWords(net.Stats())
		if rep == 0 {
			first = bits
			continue
		}
		for i := range bits {
			if bits[i] != first[i] {
				t.Fatalf("rep %d: stats word %d diverged after Reset", rep, i)
			}
		}
	}

	// A second network, kept across Resets: one-hop routes first, then
	// routes of up to eight hops raise its pathCap, so recycled worms
	// outgrow their hop records. Each run must end at the time and after
	// the events of the same sends on a fresh engine and network.
	cfg := netsim.Config{Topology: topology.MustTorus(8, 8), LinkBandwidth: 1e8, LinkLatency: 1e-7,
		Mode: netsim.ModeWormhole, PacketSize: 1024, FlitSize: 64}
	send := func(net *netsim.Network, long bool) {
		for a := 0; a < 64; a++ {
			if !long {
				net.Send(a, a^1, 4096, nil)
				continue
			}
			for _, d := range []int{9, 27, 36} {
				net.Send(a, (a+d)%64, 4096, nil)
			}
		}
	}
	type outcome struct {
		end    float64
		events int64
	}
	var want [2]outcome // by long
	for i, long := range []bool{false, true} {
		fresh := &netsim.Engine{}
		net, err := netsim.NewNetwork(fresh, cfg)
		if err != nil {
			t.Fatal(err)
		}
		send(net, long)
		want[i] = outcome{fresh.Run(), fresh.Processed()}
	}
	net, err := netsim.NewNetwork(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	run := func(long bool) {
		eng.Reset()
		send(net, long)
		w := want[0]
		if long {
			w = want[1]
		}
		if end := eng.Run(); math.Float64bits(end) != math.Float64bits(w.end) || eng.Processed() != w.events {
			t.Fatalf("long routes %v: reused network ended at %v after %d events, fresh one at %v after %d",
				long, end, eng.Processed(), w.end, w.events)
		}
	}
	run(false)
	run(false)
	run(true) // pathCap grows: recycled worms re-size their hop records
	run(false)
	run(true)
	if avg := testing.AllocsPerRun(10, func() { run(false); run(true) }); avg > 0.5 {
		t.Errorf("after routes grew, a short and a long run allocate %.1f times, want 0", avg)
	}
}

// TestWormholeZeroAllocSteadyState pins the pooling contract for the new
// mode: once worm records, route buffers, and queue storage are warm, a
// contended wormhole run performs zero heap allocations.
func TestWormholeZeroAllocSteadyState(t *testing.T) {
	eng := &netsim.Engine{}
	net, err := netsim.NewNetwork(eng, netsim.Config{
		Topology:      topology.MustTorus(8, 8),
		LinkBandwidth: 1e8,
		LinkLatency:   1e-7,
		Mode:          netsim.ModeWormhole,
		PacketSize:    1024,
		FlitSize:      64,
	})
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		eng.Reset()
		for a := 0; a < 64; a++ {
			for d := 1; d <= 8; d++ {
				net.Send(a, (a+d*7)%64, 4096, nil)
			}
		}
		eng.Run()
	}
	// Warm twice: first run grows pools, second settles free-list reuse.
	run()
	run()
	if avg := testing.AllocsPerRun(20, run); avg > 0.5 {
		t.Errorf("steady-state wormhole simulation allocates %.1f times per run, want 0", avg)
	}
}
