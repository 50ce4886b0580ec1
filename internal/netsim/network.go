package netsim

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/topology"
)

// Mode selects the network's contention model.
type Mode uint8

const (
	// ModePacket is the default store-and-forward packet model: whole
	// packets reserve links FIFO and queue on busy ones.
	ModePacket Mode = iota
	// ModeWormhole is the flit-level cut-through model: packets decompose
	// into flits that pipeline hop by hop, headers acquire virtual
	// channels, and blocked worms hold every upstream channel they occupy
	// (see wormhole.go).
	ModeWormhole
)

// String returns the mode's flag spelling.
func (m Mode) String() string {
	switch m {
	case ModePacket:
		return "packet"
	case ModeWormhole:
		return "wormhole"
	}
	return fmt.Sprintf("Mode(%d)", uint8(m))
}

// ParseMode parses a mode name as spelled on CLI flags and in service
// job specs: "packet" (or "") and "wormhole".
func ParseMode(s string) (Mode, error) {
	switch s {
	case "", "packet":
		return ModePacket, nil
	case "wormhole":
		return ModeWormhole, nil
	}
	return 0, fmt.Errorf("netsim: unknown mode %q (want packet or wormhole)", s)
}

// Config parameterizes a simulated network.
type Config struct {
	// Topology provides nodes, links, and deterministic routes.
	Topology topology.Router
	// LinkBandwidth is per-link bandwidth in bytes/second. The paper's
	// Figures 7–9 sweep this from 100 MB/s to 1 GB/s.
	LinkBandwidth float64
	// LinkLatency is the fixed per-hop latency in seconds (switch + wire).
	LinkLatency float64
	// PacketSize splits messages into packets of at most this many bytes,
	// letting packets of different messages interleave on links. Zero
	// sends each message as a single unit.
	PacketSize int
	// SendOverhead is per-message CPU time charged at the source before
	// injection (software stack cost). Optional.
	SendOverhead float64
	// Adaptive switches from deterministic dimension-ordered routing to
	// adaptive minimal routing: each packet picks, hop by hop, the
	// minimal next link that frees up earliest.
	Adaptive bool
	// BufferPackets enables credit-based flow control: each (link,
	// virtual channel) pair grants this many downstream packet buffers,
	// and packets block upstream when buffers fill (virtual cut-through
	// with backpressure; see buffered.go). Zero keeps the default
	// infinite-queue link-reservation model. Mutually exclusive with
	// Adaptive.
	BufferPackets int
	// Mode selects the contention model: ModePacket (default) or
	// ModeWormhole. Wormhole mode routes deterministically and is
	// mutually exclusive with Adaptive and BufferPackets.
	Mode Mode
	// FlitSize is the flit payload in bytes for wormhole mode; packets
	// split into ceil(bytes/FlitSize) equal flits. Zero means the
	// 64-byte default.
	FlitSize int
	// FlitBuffer is the per-(link, virtual channel) flit buffer depth in
	// wormhole mode; a flit crosses a link only when a downstream slot
	// is free. Zero means the default of 4.
	FlitBuffer int
	// CollectLatencies records every message's latency so Stats can
	// report percentiles (P50/P95/P99). Costs memory proportional to the
	// message count; off by default.
	CollectLatencies bool
}

// validate checks every field up front and returns a *ConfigError naming
// the offending field; simulations never start from an invalid Config, so
// NaN/Inf latencies and deep-in-the-run panics cannot occur.
func (c *Config) validate() error {
	if c.Topology == nil {
		return &ConfigError{Field: "Topology", Reason: "required"}
	}
	return c.CheckSettings()
}

// CheckSettings is validate without the Topology check: every rule on
// the numeric fields, the mode and the flag combinations. A caller that
// names a simulation before it builds the machine (the mapping service)
// calls it to refuse an invalid spec first.
func (c *Config) CheckSettings() error {
	if math.IsNaN(c.LinkBandwidth) || c.LinkBandwidth <= 0 {
		return &ConfigError{Field: "LinkBandwidth", Reason: fmt.Sprintf("must be positive, got %v", c.LinkBandwidth)}
	}
	if math.IsNaN(c.LinkLatency) || c.LinkLatency < 0 {
		return &ConfigError{Field: "LinkLatency", Reason: fmt.Sprintf("must be non-negative, got %v", c.LinkLatency)}
	}
	if math.IsNaN(c.SendOverhead) || c.SendOverhead < 0 {
		return &ConfigError{Field: "SendOverhead", Reason: fmt.Sprintf("must be non-negative, got %v", c.SendOverhead)}
	}
	if c.PacketSize < 0 {
		return &ConfigError{Field: "PacketSize", Reason: fmt.Sprintf("must be non-negative, got %d", c.PacketSize)}
	}
	if c.BufferPackets < 0 {
		return &ConfigError{Field: "BufferPackets", Reason: fmt.Sprintf("must be non-negative, got %d", c.BufferPackets)}
	}
	if c.BufferPackets > 0 && c.Adaptive {
		return &ConfigError{Field: "BufferPackets/Adaptive", Reason: "mutually exclusive"}
	}
	if c.Mode > ModeWormhole {
		return &ConfigError{Field: "Mode", Reason: fmt.Sprintf("unknown mode %d", c.Mode)}
	}
	if c.FlitSize < 0 {
		return &ConfigError{Field: "FlitSize", Reason: fmt.Sprintf("must be non-negative, got %d", c.FlitSize)}
	}
	if c.FlitBuffer < 0 {
		return &ConfigError{Field: "FlitBuffer", Reason: fmt.Sprintf("must be non-negative, got %d", c.FlitBuffer)}
	}
	if c.Mode == ModeWormhole && c.Adaptive {
		return &ConfigError{Field: "Mode/Adaptive", Reason: "mutually exclusive (wormhole routes deterministically)"}
	}
	if c.Mode == ModeWormhole && c.BufferPackets > 0 {
		return &ConfigError{Field: "Mode/BufferPackets", Reason: "mutually exclusive (wormhole has its own flit buffers)"}
	}
	return nil
}

// packet is one in-flight packet, pooled on the Network. Which fields are
// live depends on the routing mode; the indices tie it back to its parent
// message and (in buffered mode) the wait queue it sits on.
type packet struct {
	next     int32 // intrusive wait-queue link (buffered mode); -1 end
	msg      int32 // parent message pool index
	hop      int32 // index of the current node in the message's path
	cur, dst int32 // adaptive mode: current node and destination
	heldLink int32 // buffered: upstream buffer occupied (-1 at source)
	vc       int8  // buffered: current virtual channel
	heldVC   int8
}

// message is one in-flight message, pooled on the Network.
type message struct {
	path      []int   // deterministic route; storage reused across messages
	bytes     float64 // per-packet bytes after the even split
	start     float64 // injection time (latency is measured from here)
	remaining int32   // packets (or worms) not yet delivered
	onDone    func()  // caller's delivery callback (may be nil)
}

// Network simulates message transport over a topology. Use Send to inject
// messages; delivery callbacks fire inside Engine.Run.
type Network struct {
	cfg    Config
	eng    *Engine
	id     uint16            // this network's slot in eng.nets; Send re-validates it
	links  *topology.LinkSet // link ids: the per-link slices' indices
	freeAt []float64         // per-link: time the link becomes free
	busy   []float64         // per-link: accumulated transmission time
	buf    *bufNetwork
	wh     *whNetwork

	// Free-list pools: steady-state simulation recycles message and
	// packet records (and their route storage) instead of allocating.
	msgs    []message
	freeMsg []int32
	pkts    []packet
	freePkt []int32
	pathCap int // high-water route length; pre-grows reused path buffers

	// Statistics.
	sent      int
	delivered int
	latSum    float64
	latMax    float64
	bytesSent float64
	latencies []float64 // populated when cfg.CollectLatencies
}

// NewNetwork builds a network bound to an engine.
func NewNetwork(eng *Engine, cfg Config) (*Network, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	ls := topology.EnumerateLinks(cfg.Topology)
	n := &Network{
		cfg:    cfg,
		eng:    eng,
		links:  ls,
		freeAt: make([]float64, ls.Len()),
		busy:   make([]float64, ls.Len()),
	}
	n.id = eng.register(n)
	if cfg.BufferPackets > 0 {
		n.buf = newBufNetwork(n)
	}
	if cfg.Mode == ModeWormhole {
		if n.cfg.FlitSize == 0 {
			n.cfg.FlitSize = defaultFlitSize
		}
		if n.cfg.FlitBuffer == 0 {
			n.cfg.FlitBuffer = defaultFlitBuffer
		}
		n.wh = newWhNetwork(n)
	}
	return n, nil
}

// allocMsg takes a message record from the pool (or grows it).
func (n *Network) allocMsg() int32 {
	if k := len(n.freeMsg); k > 0 {
		mi := n.freeMsg[k-1]
		n.freeMsg = n.freeMsg[:k-1]
		return mi
	}
	n.msgs = append(n.msgs, message{})
	return int32(len(n.msgs) - 1)
}

// freeMsgSlot returns a message record to the pool, keeping its route
// storage and dropping the callback reference.
func (n *Network) freeMsgSlot(mi int32) {
	n.msgs[mi].onDone = nil
	//lint:ignore hotalloc free-list capacity equals the message pool size; append never grows after warm-up
	n.freeMsg = append(n.freeMsg, mi)
}

// allocPkt takes a packet record from the pool (or grows it).
func (n *Network) allocPkt() int32 {
	if k := len(n.freePkt); k > 0 {
		pi := n.freePkt[k-1]
		n.freePkt = n.freePkt[:k-1]
		return pi
	}
	n.pkts = append(n.pkts, packet{})
	return int32(len(n.pkts) - 1)
}

func (n *Network) freePktSlot(pi int32) {
	//lint:ignore hotalloc free-list capacity equals the packet pool size; append never grows after warm-up
	n.freePkt = append(n.freePkt, pi)
}

// Send injects a message of size bytes from src to dst at the current
// simulation time; onDelivered (may be nil) fires when the last packet
// arrives. Messages to self are delivered immediately.
func (n *Network) Send(src, dst int, bytes float64, onDelivered func()) {
	if int(n.id) >= len(n.eng.nets) || n.eng.nets[n.id] != n {
		// The engine was Reset since this network last used it. Its clock
		// restarted at 0, so link reservations made on the old clock are
		// void.
		n.id = n.eng.register(n)
		clear(n.freeAt)
	}
	n.sent++
	n.bytesSent += bytes
	start := n.eng.now + n.cfg.SendOverhead
	mi := n.allocMsg()
	m := &n.msgs[mi]
	m.start = start
	m.onDone = onDelivered
	if src == dst {
		m.remaining = 1
		n.eng.scheduleEvent(start, event{kind: evSelf, net: n.id, idx: mi})
		return
	}
	if !n.cfg.Adaptive {
		// Bring a reused slot's route buffer up to the longest route seen
		// so far in one step; without this, free-list recycling permutes
		// slots across runs and append keeps doubling a different buffer
		// each time, spoiling the zero-alloc steady state.
		if cap(m.path) < n.pathCap {
			m.path = make([]int, 0, n.pathCap)
		}
		m.path = n.cfg.Topology.Route(m.path[:0], src, dst)
		if len(m.path) > n.pathCap {
			n.pathCap = len(m.path)
		}
	}
	packets := 1
	packetBytes := bytes
	if n.cfg.PacketSize > 0 && bytes > float64(n.cfg.PacketSize) {
		packets = int(math.Ceil(bytes / float64(n.cfg.PacketSize)))
		packetBytes = bytes / float64(packets)
	}
	m.bytes = packetBytes
	m.remaining = int32(packets)
	if n.wh != nil {
		// Wormhole mode: each packet travels as a worm of flits; the
		// worm pool replaces the packet pool entirely.
		n.wh.launch(mi, start, packets)
		return
	}
	for pkt := 0; pkt < packets; pkt++ {
		pi := n.allocPkt()
		p := &n.pkts[pi]
		p.msg = mi
		switch {
		case n.cfg.Adaptive:
			p.cur, p.dst = int32(src), int32(dst)
			n.eng.scheduleEvent(start, event{kind: evAdapt, net: n.id, idx: pi})
		case n.buf != nil:
			p.hop = 0
			p.vc, p.heldLink, p.heldVC = 0, -1, -1
			p.next = -1
			n.eng.scheduleEvent(start, event{kind: evBufReq, net: n.id, idx: pi})
		default:
			p.hop = 0
			n.eng.scheduleEvent(start, event{kind: evHop, net: n.id, idx: pi})
		}
	}
}

// onSelf delivers a self-send (zero network latency by construction).
func (n *Network) onSelf(mi int32) {
	m := &n.msgs[mi]
	n.recordDelivery(n.eng.now - m.start)
	cb := m.onDone
	n.freeMsgSlot(mi)
	if cb != nil {
		//lint:ignore hotalloc completion callbacks are driver-owned; simulation benchmarks run them nil or pre-allocated
		cb()
	}
}

// onHop is the deterministic-routing packet event: the packet stands at
// path[hop]; either it has arrived, or it reserves the next link
// FIFO-fashion and schedules its own next arrival.
func (n *Network) onHop(pi int32) {
	p := &n.pkts[pi]
	m := &n.msgs[p.msg]
	if int(p.hop) == len(m.path)-1 {
		mi := p.msg
		n.freePktSlot(pi)
		n.packetDone(mi)
		return
	}
	li := n.links.Index(m.path[p.hop], m.path[p.hop+1])
	tx := m.bytes / n.cfg.LinkBandwidth
	start := n.eng.now
	if n.freeAt[li] > start {
		start = n.freeAt[li]
	}
	n.freeAt[li] = start + tx
	n.busy[li] += tx
	p.hop++
	n.eng.scheduleEvent(start+tx+n.cfg.LinkLatency, event{kind: evHop, net: n.id, idx: pi})
}

// packetDone retires one packet of message mi; the last packet records
// the delivery and fires the caller's callback.
func (n *Network) packetDone(mi int32) {
	m := &n.msgs[mi]
	m.remaining--
	if m.remaining > 0 {
		return
	}
	n.recordDelivery(n.eng.now - m.start)
	cb := m.onDone
	n.freeMsgSlot(mi)
	if cb != nil {
		//lint:ignore hotalloc completion callbacks are driver-owned; simulation benchmarks run them nil or pre-allocated
		cb()
	}
}

func (n *Network) recordDelivery(latency float64) {
	n.delivered++
	n.latSum += latency
	if latency > n.latMax {
		n.latMax = latency
	}
	if n.cfg.CollectLatencies {
		//lint:ignore hotalloc opt-in latency trace (CollectLatencies) is a diagnostic mode outside the zero-alloc contract
		n.latencies = append(n.latencies, latency)
	}
}

// Stats summarizes a finished (or in-progress) simulation.
//
//lint:ignore jsoncontract float fields marshal via Go's shortest-form strconv — deterministic for identical inputs; wire bytes pinned by cache equality and golden tests
type Stats struct {
	MessagesSent      int
	MessagesDelivered int
	BytesSent         float64
	AvgLatency        float64 // seconds, over delivered messages
	MaxLatency        float64
	MaxLinkBusy       float64 // busiest link's total transmission seconds
	AvgLinkBusy       float64
	// P50/P95/P99 latency percentiles; populated only when
	// Config.CollectLatencies is set.
	P50, P95, P99 float64
}

// Stats returns current statistics.
func (n *Network) Stats() Stats {
	s := Stats{
		MessagesSent:      n.sent,
		MessagesDelivered: n.delivered,
		BytesSent:         n.bytesSent,
		MaxLatency:        n.latMax,
	}
	if n.delivered > 0 {
		s.AvgLatency = n.latSum / float64(n.delivered)
	}
	sum := 0.0
	for _, b := range n.busy {
		sum += b
		if b > s.MaxLinkBusy {
			s.MaxLinkBusy = b
		}
	}
	if len(n.busy) > 0 {
		s.AvgLinkBusy = sum / float64(len(n.busy))
	}
	if len(n.latencies) > 0 {
		sorted := append([]float64(nil), n.latencies...)
		sort.Float64s(sorted)
		pct := func(q float64) float64 {
			// Nearest-rank percentile.
			i := int(math.Ceil(q*float64(len(sorted)))) - 1
			if i < 0 {
				i = 0
			}
			return sorted[i]
		}
		s.P50, s.P95, s.P99 = pct(0.50), pct(0.95), pct(0.99)
	}
	return s
}

// Latencies returns the recorded per-message latencies (nil unless
// Config.CollectLatencies); the slice must not be modified.
func (n *Network) Latencies() []float64 { return n.latencies }
