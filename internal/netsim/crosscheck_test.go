package netsim_test

// The golden workloads: nine fixed scenarios over tori and meshes, every
// routing mode, whose Stats words, event counts and latency streams
// golden_test.go pins. Until e87b49d they were also run on the frozen
// pre-rewrite simulator (internal/netsim/legacy) and matched it bit for
// bit; the words recorded there are its output. Random machines, configs
// and send times are reference_test.go's.

import (
	"errors"
	"math"
	"testing"

	"repro/internal/netsim"
	"repro/internal/topology"
)

// workload drives one traffic pattern through the send closure.
type workload struct {
	name string
	topo topology.Router
	cfg  func() netsim.Config // Topology filled in by the runner
	send func(send func(src, dst int, bytes float64))
}

func crosscheckWorkloads() []workload {
	allToAll := func(nodes int, bytes float64) func(func(int, int, float64)) {
		return func(send func(int, int, float64)) {
			for a := 0; a < nodes; a++ {
				for b := 0; b < nodes; b++ {
					if a != b {
						send(a, b, bytes)
					}
				}
			}
		}
	}
	hotspot := func(nodes, dst, msgs int, bytes float64) func(func(int, int, float64)) {
		return func(send func(int, int, float64)) {
			for i := 0; i < msgs; i++ {
				send(i%nodes, dst, bytes)
			}
		}
	}
	shift := func(nodes, reps int, bytes float64) func(func(int, int, float64)) {
		return func(send func(int, int, float64)) {
			for r := 1; r <= reps; r++ {
				for a := 0; a < nodes; a++ {
					send(a, (a+r*7)%nodes, bytes)
				}
			}
		}
	}
	return []workload{
		{
			name: "deterministic/all-to-all-packets",
			topo: topology.MustTorus(4, 4),
			cfg: func() netsim.Config {
				return netsim.Config{LinkBandwidth: 1e6, LinkLatency: 1e-7, PacketSize: 256, CollectLatencies: true}
			},
			send: allToAll(16, 1000),
		},
		{
			name: "deterministic/hotspot-3d",
			topo: topology.MustTorus(4, 4, 4),
			cfg: func() netsim.Config {
				return netsim.Config{LinkBandwidth: 1e8, LinkLatency: 100e-9, PacketSize: 1024, SendOverhead: 1e-6}
			},
			send: hotspot(64, 21, 640, 4096),
		},
		{
			name: "deterministic/shift-mesh-monolithic",
			topo: topology.MustMesh(8, 8),
			cfg: func() netsim.Config {
				return netsim.Config{LinkBandwidth: 2e8, LinkLatency: 1e-7, CollectLatencies: true}
			},
			send: shift(64, 4, 4096),
		},
		{
			name: "deterministic/self-and-overhead",
			topo: topology.MustTorus(4, 4),
			cfg: func() netsim.Config {
				return netsim.Config{LinkBandwidth: 1e6, LinkLatency: 1e-6, SendOverhead: 0.5, PacketSize: 128}
			},
			send: func(send func(int, int, float64)) {
				send(3, 3, 1e6)
				send(0, 5, 999)
				send(5, 0, 1001)
				send(2, 2, 1)
			},
		},
		{
			name: "adaptive/hotspot",
			topo: topology.MustTorus(6, 6),
			cfg: func() netsim.Config {
				return netsim.Config{LinkBandwidth: 1e6, Adaptive: true, CollectLatencies: true}
			},
			send: hotspot(36, 21, 144, 1000),
		},
		{
			name: "adaptive/all-to-all-packets",
			topo: topology.MustTorus(4, 4),
			cfg: func() netsim.Config {
				return netsim.Config{LinkBandwidth: 1e7, PacketSize: 512, Adaptive: true}
			},
			send: allToAll(16, 2000),
		},
		{
			name: "buffered/torus-all-to-all",
			topo: topology.MustTorus(4, 4),
			cfg: func() netsim.Config {
				return netsim.Config{LinkBandwidth: 1e6, LinkLatency: 1e-7, BufferPackets: 1, CollectLatencies: true}
			},
			send: allToAll(16, 1000),
		},
		{
			name: "buffered/mesh-packets",
			topo: topology.MustMesh(4, 4),
			cfg: func() netsim.Config {
				return netsim.Config{LinkBandwidth: 1e6, LinkLatency: 1e-7, BufferPackets: 2, PacketSize: 512}
			},
			send: allToAll(16, 1500),
		},
		{
			name: "buffered/ring-dateline",
			topo: topology.MustTorus(6),
			cfg: func() netsim.Config {
				return netsim.Config{LinkBandwidth: 1e6, BufferPackets: 1}
			},
			send: func(send func(int, int, float64)) {
				for i := 0; i < 6; i++ {
					send(i, (i+2)%6, 1000)
				}
			},
		},
	}
}

// runNew executes w on the rebuilt engine and returns its Stats and the
// engine, for the event counters.
func runNew(t *testing.T, w workload) (*netsim.Network, *netsim.Engine) {
	t.Helper()
	eng := &netsim.Engine{}
	cfg := w.cfg()
	cfg.Topology = w.topo
	net, err := netsim.NewNetwork(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	w.send(func(src, dst int, bytes float64) { net.Send(src, dst, bytes, nil) })
	eng.Run()
	return net, eng
}

// TestEngineResetReusesArena checks that one engine produces identical
// results run after run, so a sweep can recycle it.
func TestEngineResetReusesArena(t *testing.T) {
	w := crosscheckWorkloads()[0]
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
	if eng.Processed() == 0 {
		t.Error("Processed() = 0 after a run")
	}
}

// TestConfigErrorTyped checks the typed validation error carries the
// offending field and unwraps via errors.As.
func TestConfigErrorTyped(t *testing.T) {
	to := topology.MustTorus(4)
	cases := []struct {
		cfg   netsim.Config
		field string
	}{
		{netsim.Config{}, "Topology"},
		{netsim.Config{Topology: to}, "LinkBandwidth"},
		{netsim.Config{Topology: to, LinkBandwidth: math.NaN()}, "LinkBandwidth"},
		{netsim.Config{Topology: to, LinkBandwidth: 1, LinkLatency: -1}, "LinkLatency"},
		{netsim.Config{Topology: to, LinkBandwidth: 1, LinkLatency: math.NaN()}, "LinkLatency"},
		{netsim.Config{Topology: to, LinkBandwidth: 1, SendOverhead: -1}, "SendOverhead"},
		{netsim.Config{Topology: to, LinkBandwidth: 1, PacketSize: -1}, "PacketSize"},
		{netsim.Config{Topology: to, LinkBandwidth: 1, BufferPackets: -2}, "BufferPackets"},
		{netsim.Config{Topology: to, LinkBandwidth: 1, BufferPackets: 1, Adaptive: true}, "BufferPackets/Adaptive"},
		{netsim.Config{Topology: to, LinkBandwidth: 1, Mode: 99}, "Mode"},
		{netsim.Config{Topology: to, LinkBandwidth: 1, FlitSize: -1}, "FlitSize"},
		{netsim.Config{Topology: to, LinkBandwidth: 1, FlitBuffer: -1}, "FlitBuffer"},
		{netsim.Config{Topology: to, LinkBandwidth: 1, Mode: netsim.ModeWormhole, Adaptive: true}, "Mode/Adaptive"},
		{netsim.Config{Topology: to, LinkBandwidth: 1, Mode: netsim.ModeWormhole, BufferPackets: 1}, "Mode/BufferPackets"},
	}
	for _, c := range cases {
		_, err := netsim.NewNetwork(&netsim.Engine{}, c.cfg)
		if err == nil {
			t.Errorf("config %+v: want error", c.cfg)
			continue
		}
		var ce *netsim.ConfigError
		if !errors.As(err, &ce) {
			t.Errorf("config %+v: error %v is not a *ConfigError", c.cfg, err)
			continue
		}
		if ce.Field != c.field {
			t.Errorf("config %+v: Field = %q, want %q", c.cfg, ce.Field, c.field)
		}
	}
}
