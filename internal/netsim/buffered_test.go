package netsim

import (
	"math"
	"testing"

	"repro/internal/topology"
)

func TestBufferedConfigValidation(t *testing.T) {
	eng := &Engine{}
	to := topology.MustTorus(4)
	if _, err := NewNetwork(eng, Config{Topology: to, LinkBandwidth: 1, BufferPackets: -1}); err == nil {
		t.Error("negative buffers: want error")
	}
	if _, err := NewNetwork(eng, Config{Topology: to, LinkBandwidth: 1, BufferPackets: 1, Adaptive: true}); err == nil {
		t.Error("buffered+adaptive: want error")
	}
}

func TestBufferedSingleMessageMatchesUnbuffered(t *testing.T) {
	// Without contention, buffered flow control adds no delay.
	run := func(buffers int) float64 {
		eng := &Engine{}
		net, err := NewNetwork(eng, Config{
			Topology: topology.MustMesh(8), LinkBandwidth: 1e6,
			LinkLatency: 1e-6, BufferPackets: buffers,
		})
		if err != nil {
			t.Fatal(err)
		}
		net.Send(0, 4, 1000, nil)
		eng.Run()
		return net.Stats().AvgLatency
	}
	unbuf, buf := run(0), run(4)
	if math.Abs(unbuf-buf) > 1e-12 {
		t.Errorf("buffered %v != unbuffered %v without contention", buf, unbuf)
	}
}

func TestBufferedBackpressureSlowsBursts(t *testing.T) {
	// A long chain with a 1-packet buffer: a burst of messages through it
	// cannot pipeline as deeply as with infinite queues, so the last
	// delivery happens later (throughput identical, occupancy bounded).
	run := func(buffers int) float64 {
		eng := &Engine{}
		net, err := NewNetwork(eng, Config{
			Topology: topology.MustMesh(6), LinkBandwidth: 1e3,
			LinkLatency: 0.05, BufferPackets: buffers,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			net.Send(0, 5, 1000, nil)
		}
		return eng.Run()
	}
	unbuf, tight := run(0), run(1)
	if tight < unbuf {
		t.Errorf("backpressure finished earlier (%v) than infinite buffers (%v)?", tight, unbuf)
	}
	if tight == unbuf {
		t.Log("note: backpressure did not change the completion time on this workload")
	}
}

func TestBufferedConservationMesh(t *testing.T) {
	eng := &Engine{}
	net, err := NewNetwork(eng, Config{
		Topology: topology.MustMesh(4, 4), LinkBandwidth: 1e6,
		LinkLatency: 1e-7, BufferPackets: 2, PacketSize: 512,
	})
	if err != nil {
		t.Fatal(err)
	}
	sent := 0
	for a := 0; a < 16; a++ {
		for b := 0; b < 16; b++ {
			if a != b {
				net.Send(a, b, 1500, nil)
				sent++
			}
		}
	}
	eng.Run()
	if got := net.Stats().MessagesDelivered; got != sent {
		t.Fatalf("delivered %d of %d (deadlock or loss)", got, sent)
	}
}

func TestBufferedTorusDeadlockFreedom(t *testing.T) {
	// The acid test: all-to-all on a torus with single-packet buffers.
	// Without the dateline virtual-channel discipline this cycles and
	// deadlocks; the run must drain completely.
	eng := &Engine{}
	net, err := NewNetwork(eng, Config{
		Topology: topology.MustTorus(4, 4), LinkBandwidth: 1e6,
		LinkLatency: 1e-7, BufferPackets: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	sent := 0
	for a := 0; a < 16; a++ {
		for b := 0; b < 16; b++ {
			if a != b {
				net.Send(a, b, 1000, nil)
				sent++
			}
		}
	}
	eng.Run()
	if got := net.Stats().MessagesDelivered; got != sent {
		t.Fatalf("delivered %d of %d — torus deadlock", got, sent)
	}
}

func TestBufferedTorusRingTraffic(t *testing.T) {
	// Directed ring traffic around a 1D torus exercises exactly the
	// wraparound cycle the dateline rule must break.
	eng := &Engine{}
	to := topology.MustTorus(6)
	net, err := NewNetwork(eng, Config{
		Topology: to, LinkBandwidth: 1e6, BufferPackets: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	sent := 0
	for i := 0; i < 6; i++ {
		net.Send(i, (i+2)%6, 1000, nil) // 2-hop, all same direction
		sent++
	}
	eng.Run()
	if got := net.Stats().MessagesDelivered; got != sent {
		t.Fatalf("delivered %d of %d", got, sent)
	}
}

func TestWrapsDetection(t *testing.T) {
	dims := topology.MustTorus(4, 4).Dims()
	// Node 0=(0,0): neighbor 3=(0,3) crosses the seam; neighbor 1 does not.
	if !wrapsDims(dims, 0, 3) {
		t.Error("0->3 on torus(4,4) should wrap")
	}
	if wrapsDims(dims, 0, 1) {
		t.Error("0->1 should not wrap")
	}
	// Second dimension seam: 0=(0,0) -> 12=(3,0).
	if !wrapsDims(dims, 0, 12) {
		t.Error("0->12 should wrap in dimension 0")
	}
	if wrapsDims(dims, 4, 8) {
		t.Error("4->8 is a unit move")
	}
}
