package benchtab

// Suite "netsim": the simulator core on scheduler streams and packet-,
// credit- and flit-level workloads. Each simulation is single-threaded;
// the rows still run at every width like the rest. events/op and
// allocs/op are the exact columns benchjson -compare gates; the Stats the
// same workloads produce are pinned by the netsim package's goldens and
// its reference network, not here.

import (
	"math/rand"
	"testing"

	"repro/internal/netsim"
	"repro/internal/topology"
)

// engineRow measures raw scheduler throughput: pending self-rescheduling
// timers dispatching total events. With the fixed 1 µs period the timers
// started ten slots apart keep meeting on one timestamp, the tie-rich
// stream a simulator produces; tiefree draws every gap from a seeded
// exponential instead, so no two events share a time and every event
// costs the run queue a run of its own: its worst case. The residual allocs/op
// are the workload's own tick closures.
func engineRow(name string, smoke bool, pending, total int, tiefree bool) Row {
	return Row{Suite: "netsim", Name: "Engine/" + name, Smoke: smoke,
		Run: func(b *testing.B) {
			eng := &netsim.Engine{}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				eng.Reset()
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
			b.ReportMetric(float64(eng.Processed()), "events/op")
		},
	}
}

// hotspot is the packet-dense scenario: every node of an 8x8 torus sends
// load 4 KB messages across the machine, saturating the links near the
// hotspot diagonal.
func hotspot(load int, send func(src, dst int, bytes float64)) {
	for a := 0; a < 64; a++ {
		for d := 1; d <= load; d++ {
			send(a, (a+d*7)%64, 4096)
		}
	}
}

func hotspotConfig(packet, buffered int) netsim.Config {
	return netsim.Config{
		Topology: topology.MustTorus(8, 8), LinkBandwidth: 1e8, LinkLatency: 1e-7,
		PacketSize: packet, BufferPackets: buffered,
	}
}

// steady measures the hotspot scenario on one engine and network reused
// across runs. Two warm-up runs: the first grows the pools to the peak
// in-flight population, and storage freed in a different order can still
// regrow once on the second. Steady state (0 allocs/op, which the
// package's own AllocsPerRun tests gate) starts at run three.
func steady(cfg netsim.Config, load int) func(b *testing.B) {
	return func(b *testing.B) {
		eng := &netsim.Engine{}
		net, err := netsim.NewNetwork(eng, cfg)
		if err != nil {
			b.Fatal(err)
		}
		send := func(s, d int, bytes float64) { net.Send(s, d, bytes, nil) }
		run := func() {
			eng.Reset()
			hotspot(load, send)
			eng.Run()
		}
		run()
		run()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			run()
		}
		b.ReportMetric(float64(eng.Processed()), "events/op")
	}
}

// hotspotRow measures the engine in steady state on the hotspot scenario,
// unbounded links or credit-based flow control with `buffered` packets per
// link.
func hotspotRow(name string, smoke bool, load, buffered int) Row {
	return Row{Suite: "netsim", Name: name, Smoke: smoke, Run: steady(hotspotConfig(256, buffered), load)}
}

// wormholeRow measures the flit-level mode against the packet model of
// the same engine on the same workload: the ratio prices the fidelity (one event per flit per hop, an order of
// magnitude more events) rather than a rewrite.
func wormholeRow(name string, smoke bool, load int) Row {
	packet := hotspotConfig(1024, 0)
	worm := packet
	worm.Mode = netsim.ModeWormhole
	worm.FlitSize = 64
	return Row{Suite: "netsim", Name: name, Smoke: smoke, Run: steady(worm, load), Ref: steady(packet, load), RefName: "packet"}
}

func netsimRows() []Row {
	return []Row{
		engineRow("sparse", true, 64, 100_000, false),
		engineRow("dense", false, 16384, 100_000, false),
		engineRow("tiefree/pending=1024", false, 1024, 200_000, true),
		engineRow("tiefree/pending=16384", false, 16384, 200_000, true),
		hotspotRow("Hotspot/load=4", true, 4, 0),
		hotspotRow("Hotspot/load=16", false, 16, 0),
		hotspotRow("Hotspot/load=63", false, 63, 0),
		hotspotRow("Buffered/load=8", true, 8, 4),
		hotspotRow("Buffered/load=32", false, 32, 4),
		wormholeRow("Wormhole/load=4", true, 4),
		wormholeRow("Wormhole/load=16", false, 16),
	}
}
