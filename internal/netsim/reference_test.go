package netsim

// The simulator's oracle. refNetwork is the packet model written the plain
// way on refEngine (scheduler_test.go): one closure per event, one Route
// per message, link ids from per-node Neighbors offsets, and its own
// delivery, Stats and percentile arithmetic. TestNetworkMatchesReference
// and FuzzNetworkMatchesReference hold Network to it word for word and
// latency by latency on random tori, meshes and hypercubes, configs and
// staggered send times. Buffered and wormhole modes are outside it: their
// golden Stats (golden_test.go) and the conservation, back-pressure and
// deadlock tests hold them.

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/topology"
)

// refNetwork is the reference packet network.
type refNetwork struct {
	cfg    Config
	eng    *refEngine
	off    []int     // the link from v to its i-th neighbour is off[v]+i
	freeAt []float64 // per link
	busy   []float64
	lat    []float64 // every delivery's latency, in delivery order
	sent   int
	bytes  float64
}

func newRefNetwork(eng *refEngine, cfg Config) *refNetwork {
	t := cfg.Topology
	r := &refNetwork{cfg: cfg, eng: eng, off: make([]int, t.Nodes()+1)}
	for v := 0; v < t.Nodes(); v++ {
		r.off[v+1] = r.off[v] + len(t.Neighbors(v))
	}
	r.freeAt = make([]float64, r.off[t.Nodes()])
	r.busy = make([]float64, r.off[t.Nodes()])
	return r
}

func (r *refNetwork) link(a, b int) int {
	for i, u := range r.cfg.Topology.Neighbors(a) {
		if u == b {
			return r.off[a] + i
		}
	}
	panic(fmt.Sprintf("refNetwork: (%d,%d) is not a link", a, b))
}

// send injects a message at Now. After the send overhead every packet
// starts from src; the last one to arrive delivers the message.
func (r *refNetwork) send(src, dst int, bytes float64) {
	r.sent++
	r.bytes += bytes
	start := r.eng.Now() + r.cfg.SendOverhead
	deliver := func() { r.lat = append(r.lat, r.eng.Now()-start) }
	if src == dst {
		r.eng.Schedule(start, deliver)
		return
	}
	packets, size := 1, bytes
	if ps := float64(r.cfg.PacketSize); ps > 0 && bytes > ps {
		packets = int(math.Ceil(bytes / ps))
		size = bytes / float64(packets)
	}
	var path []int
	if !r.cfg.Adaptive {
		path = r.cfg.Topology.Route(nil, src, dst)
	}
	left := packets
	arrived := func() {
		if left--; left == 0 {
			deliver()
		}
	}
	for k := 0; k < packets; k++ {
		r.eng.Schedule(start, func() { r.hop(src, dst, path, size, arrived) })
	}
}

// hop moves a packet standing at node at: it has arrived, or it takes the
// next link — the route's, or with Adaptive the minimal one that frees
// earliest, the lowest Neighbors position winning ties — reserving it
// FIFO from max(now, freeAt).
func (r *refNetwork) hop(at, dst int, path []int, size float64, arrived func()) {
	if at == dst {
		arrived()
		return
	}
	t := r.cfg.Topology
	next := -1
	if r.cfg.Adaptive {
		for _, u := range t.Neighbors(at) {
			if t.Distance(u, dst) == t.Distance(at, dst)-1 && (next < 0 || r.freeAt[r.link(at, u)] < r.freeAt[r.link(at, next)]) {
				next = u
			}
		}
	} else {
		path = path[1:]
		next = path[0]
	}
	l := r.link(at, next)
	tx := size / r.cfg.LinkBandwidth
	start := max(r.eng.Now(), r.freeAt[l])
	r.freeAt[l] = start + tx
	r.busy[l] += tx
	r.eng.Schedule(start+tx+r.cfg.LinkLatency, func() { r.hop(next, dst, path, size, arrived) })
}

func (r *refNetwork) latencies() []float64 {
	if !r.cfg.CollectLatencies {
		return nil
	}
	return r.lat
}

func (r *refNetwork) stats() Stats {
	s := Stats{MessagesSent: r.sent, MessagesDelivered: len(r.lat), BytesSent: r.bytes}
	sum := 0.0
	for _, l := range r.lat {
		sum += l
		s.MaxLatency = max(s.MaxLatency, l)
	}
	if len(r.lat) > 0 {
		s.AvgLatency = sum / float64(len(r.lat))
	}
	sum = 0
	for _, b := range r.busy {
		sum += b
		s.MaxLinkBusy = max(s.MaxLinkBusy, b)
	}
	if len(r.busy) > 0 {
		s.AvgLinkBusy = sum / float64(len(r.busy))
	}
	if sorted := append([]float64(nil), r.latencies()...); len(sorted) > 0 {
		sort.Float64s(sorted)
		rank := func(q float64) float64 { return sorted[int(math.Ceil(q*float64(len(sorted))))-1] }
		s.P50, s.P95, s.P99 = rank(0.50), rank(0.95), rank(0.99)
	}
	return s
}

// refCase is one random scenario: a machine, a packet-model config and
// sends at staggered times.
type refCase struct {
	cfg   Config
	sends []refSend
}

type refSend struct {
	at       float64
	src, dst int
	bytes    float64
}

func randomCase(seed int64) refCase {
	rng := rand.New(rand.NewSource(seed))
	pick := func(xs ...float64) float64 { return xs[rng.Intn(len(xs))] }
	extents := func() []int {
		d := make([]int, 1+rng.Intn(3))
		for i := range d {
			d[i] = 1 + rng.Intn(5)
		}
		return d
	}
	var topo topology.Router
	switch rng.Intn(3) {
	case 0:
		topo = topology.MustTorus(extents()...)
	case 1:
		topo = topology.MustMesh(extents()...)
	default:
		topo = topology.MustHypercube(rng.Intn(6))
	}
	c := refCase{cfg: Config{
		Topology:         topo,
		LinkBandwidth:    pick(1e6, 3e7, 1e8, 1e9),
		LinkLatency:      pick(0, 0, 1e-7, 1e-6),
		SendOverhead:     pick(0, 0, 5e-7, 2e-6),
		PacketSize:       int(pick(0, 128, 256, 1000)),
		Adaptive:         rng.Intn(2) == 0,
		CollectLatencies: rng.Intn(2) == 0,
	}}
	n := topo.Nodes()
	c.sends = make([]refSend, rng.Intn(201))
	for i := range c.sends {
		c.sends[i] = refSend{
			at:    float64(rng.Intn(4)) * pick(1e-7, 1e-6, 1e-5),
			src:   rng.Intn(n),
			dst:   rng.Intn(n),
			bytes: pick(0, 1, 128, 1000, 4096, rng.Float64()*5000),
		}
	}
	return c
}

// checkCase runs the case of seed on Network and on refNetwork and fails
// on the first Stats word or latency that differs.
func checkCase(t *testing.T, seed int64) {
	c := randomCase(seed)
	eng, ref := &Engine{}, &refEngine{}
	net, err := NewNetwork(eng, c.cfg)
	if err != nil {
		t.Fatal(err)
	}
	rn := newRefNetwork(ref, c.cfg)
	for _, s := range c.sends {
		eng.Schedule(s.at, func() { net.Send(s.src, s.dst, s.bytes, nil) })
		ref.Schedule(s.at, func() { rn.send(s.src, s.dst, s.bytes) })
	}
	eng.Run()
	ref.Run()
	cfg := c.cfg
	cfg.Topology = nil
	what := fmt.Sprintf("seed %d (%s, %d sends, %+v)", seed, c.cfg.Topology.Name(), len(c.sends), cfg)
	got, want := statsWords(net.Stats()), statsWords(rn.stats())
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: stats word %d = %#x, reference %#x", what, i, got[i], want[i])
		}
	}
	gl, wl := net.Latencies(), rn.latencies()
	if len(gl) != len(wl) {
		t.Fatalf("%s: %d latencies, reference %d", what, len(gl), len(wl))
	}
	for i := range wl {
		if math.Float64bits(gl[i]) != math.Float64bits(wl[i]) {
			t.Fatalf("%s: latency[%d] = %v, reference %v", what, i, gl[i], wl[i])
		}
	}
}

// statsWords flattens Stats to exact words.
func statsWords(s Stats) []uint64 {
	out := []uint64{uint64(s.MessagesSent), uint64(s.MessagesDelivered)}
	for _, f := range []float64{s.BytesSent, s.AvgLatency, s.MaxLatency, s.MaxLinkBusy, s.AvgLinkBusy, s.P50, s.P95, s.P99} {
		out = append(out, math.Float64bits(f))
	}
	return out
}

func TestNetworkMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 250; seed++ {
		checkCase(t, seed)
	}
}

func FuzzNetworkMatchesReference(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 4} {
		f.Add(seed)
	}
	f.Fuzz(checkCase)
}
