package netsim

// Buffered (credit-based) flow control: with Config.BufferPackets > 0,
// each receiving node grants a finite number of packet buffers per
// incoming (link, virtual channel) pair. A packet may start crossing a
// link only when the link is idle AND a downstream buffer credit is
// available; the credit returns when the packet leaves that buffer
// (starts its next hop, or is consumed at its destination). This is
// virtual cut-through with backpressure — congestion now propagates
// upstream instead of accumulating in unbounded queues.
//
// Tori are deadlock-prone under minimal routing with finite buffers, so
// the standard dateline discipline is used: every packet starts on
// virtual channel 0 and switches to virtual channel 1 for the rest of
// the current dimension after crossing the wraparound seam, breaking the
// cyclic buffer dependency exactly as BlueGene's torus hardware does.
//
// Waiting packets queue on intrusive singly-linked lists threaded through
// the Network's packet pool (packet.next), so flow control allocates
// nothing in steady state.

// vchannels is the number of virtual channels per link.
const vchannels = 2

// bufLink is the state of one directed link under buffered flow control.
// qhead/qtail are per-VC FIFO queues of waiting packet pool indices.
type bufLink struct {
	busy    bool
	credits [vchannels]int32
	qhead   [vchannels]int32
	qtail   [vchannels]int32
}

// bufNetwork augments Network with buffered flow-control state.
type bufNetwork struct {
	n     *Network
	links []bufLink
	dims  []int // cached Coordinated dims (nil for seamless topologies)
}

func newBufNetwork(n *Network) *bufNetwork {
	b := &bufNetwork{n: n, links: make([]bufLink, n.links.Len())}
	if co, ok := n.cfg.Topology.(interface{ Dims() []int }); ok {
		b.dims = co.Dims()
	}
	for i := range b.links {
		for vc := 0; vc < vchannels; vc++ {
			b.links[i].credits[vc] = int32(n.cfg.BufferPackets)
			b.links[i].qhead[vc] = -1
			b.links[i].qtail[vc] = -1
		}
	}
	return b
}

// request asks for the packet's next hop to begin, queueing if the link
// is busy or the downstream buffer is full. It doubles as the injection
// event (evBufReq) for packets starting at their source.
func (b *bufNetwork) request(pi int32) {
	p := &b.n.pkts[pi]
	path := b.n.msgs[p.msg].path
	cur, next := path[p.hop], path[p.hop+1]
	li := int32(b.n.links.Index(cur, next))
	p.vc = datelineVC(b.dims, path, int(p.hop), p.vc)
	l := &b.links[li]
	if l.busy || l.credits[p.vc] == 0 {
		p.next = -1
		if tail := l.qtail[p.vc]; tail >= 0 {
			b.n.pkts[tail].next = pi
		} else {
			l.qhead[p.vc] = pi
		}
		l.qtail[p.vc] = pi
		return
	}
	b.start(li, pi)
}

// datelineVC is the dateline rule for hop h of path, given prev, the
// virtual channel of hop h-1: switch to VC 1 when the hop crosses a
// wraparound seam (coordinates jump by more than one), and stay there
// while the route keeps moving in the dimension whose seam it crossed;
// the first hop in a new dimension is back on VC 0. Buffered and
// wormhole mode both call it.
func datelineVC(dims []int, path []int, h int, prev int8) int8 {
	a, b := path[h], path[h+1]
	if wrapsDims(dims, a, b) {
		return 1
	}
	if h > 0 && prev == 1 && dimOfDims(dims, path[h-1], a) == dimOfDims(dims, a, b) {
		return 1
	}
	return 0
}

// wrapsDims reports whether the hop from a to b crosses a torus seam of
// a grid with extents dims: the rank difference is not one of the
// stride steps of a unit move. Nil dims (no coordinates) have no seams.
func wrapsDims(dims []int, a, b int) bool {
	if dims == nil {
		return false
	}
	diff := b - a
	if diff < 0 {
		diff = -diff
	}
	stride := 1
	for i := len(dims) - 1; i >= 0; i-- {
		if diff == stride {
			return false // unit move in dimension i
		}
		if diff == stride*(dims[i]-1) {
			return true // seam crossing in dimension i
		}
		stride *= dims[i]
	}
	return false
}

// dimOfDims returns the dimension the hop a→b moves in (equal absolute
// rank deltas modulo seam adjustment is approximated by comparing which
// stride bucket each delta falls in); -1 when unknown.
func dimOfDims(dims []int, a, b int) int {
	if dims == nil {
		return 0
	}
	diff := b - a
	if diff < 0 {
		diff = -diff
	}
	stride := 1
	for i := len(dims) - 1; i >= 0; i-- {
		if diff == stride || diff == stride*(dims[i]-1) {
			return i
		}
		stride *= dims[i]
	}
	return -1
}

// start transmits packet pi across link li; the downstream buffer credit
// is consumed immediately (cut-through reservation).
func (b *bufNetwork) start(li int32, pi int32) {
	p := &b.n.pkts[pi]
	l := &b.links[li]
	l.busy = true
	l.credits[p.vc]--
	tx := b.n.msgs[p.msg].bytes / b.n.cfg.LinkBandwidth
	b.n.busy[li] += tx
	b.n.eng.scheduleEvent(b.n.eng.now+tx, event{kind: evBufFree, net: b.n.id, idx: pi, link: li})
}

// onFree fires when link li finishes transmitting packet pi: the link
// frees (waking a waiting packet), and the packet's wire flight begins.
func (b *bufNetwork) onFree(li int32, pi int32) {
	b.links[li].busy = false
	b.pumpLink(li)
	b.n.eng.scheduleEvent(b.n.eng.now+b.n.cfg.LinkLatency, event{kind: evBufArrive, net: b.n.id, idx: pi, link: li})
}

// onArrive lands packet pi in the downstream buffer of link li.
func (b *bufNetwork) onArrive(li int32, pi int32) {
	p := &b.n.pkts[pi]
	// Release the upstream buffer the packet came from.
	if p.heldLink >= 0 {
		b.release(p.heldLink, p.heldVC)
	}
	p.heldLink, p.heldVC = li, p.vc
	p.hop++
	if int(p.hop) == len(b.n.msgs[p.msg].path)-1 {
		// Consumed at the destination: free the buffer at once.
		b.release(p.heldLink, p.heldVC)
		mi := p.msg
		b.n.freePktSlot(pi)
		b.n.packetDone(mi)
		return
	}
	b.request(pi)
}

// release returns a credit and wakes a waiting packet if possible.
func (b *bufNetwork) release(li int32, vc int8) {
	b.links[li].credits[vc]++
	b.pumpLink(li)
}

// pumpLink starts the longest-waiting eligible packet on link li.
func (b *bufNetwork) pumpLink(li int32) {
	l := &b.links[li]
	if l.busy {
		return
	}
	// VC 1 first: draining escape-channel traffic breaks dependency
	// cycles fastest.
	for vc := vchannels - 1; vc >= 0; vc-- {
		if l.credits[vc] == 0 {
			continue
		}
		pi := l.qhead[vc]
		if pi < 0 {
			continue
		}
		nxt := b.n.pkts[pi].next
		l.qhead[vc] = nxt
		if nxt < 0 {
			l.qtail[vc] = -1
		}
		b.n.pkts[pi].next = -1
		b.start(li, pi)
		return
	}
}
