package netsim

// Wormhole (cut-through, flit-level) routing: with Config.Mode ==
// ModeWormhole, each packet travels as a worm of equal-sized flits that
// pipeline through the network instead of being stored and forwarded
// whole. This is the contention mechanism of the BlueGene-class machines
// the paper targets, below the granularity of the packet model:
//
//   - The header flit acquires one virtual channel per hop (FIFO per
//     channel) before any flit of the worm may cross that link; while it
//     stalls, the worm keeps every upstream (link, VC) it occupies, so
//     one blocked header can idle links across the whole span of the
//     worm — head-of-line blocking.
//   - Body flits stream at link bandwidth behind the header, gated by
//     finite per-(link, VC) flit buffers of Config.FlitBuffer slots: a
//     flit may start crossing a link only when a downstream slot is
//     free, so a stall propagates backpressure upstream within the worm.
//   - The tail releases each channel as it drains past that link
//     (progressively, not all at delivery), waking the longest-waiting
//     queued header.
//
// Routing is the topology's deterministic dimension-ordered route, which
// is deadlock-free on meshes; on tori the dateline discipline switches a
// worm to VC 1 after it crosses a wraparound seam (the same rule as the
// buffered packet mode), breaking the cyclic channel dependency. The VC
// assignment is a pure function of the route, computed once per message
// in fillHops and copied into each of its worms' hop records. An
// adaptive wormhole follow-on can reuse this split as an escape channel:
// keep VC 0 for adaptively chosen minimal hops and reserve the
// deterministic dateline path on VC 1.
//
// Timing: one flit takes flitTx = flitBytes/LinkBandwidth to serialize
// plus LinkLatency of wire flight. Links are reserved FIFO in event
// order like the packet model, and a channel's buffer slot is consumed
// when a flit starts crossing and returned when that flit starts its
// next hop (or lands at the destination) — cut-through reservation,
// matching buffered.go's credit discipline at flit granularity. In the
// uncongested regime this pipeline delivers a packet of L flits over h
// hops in (L-1)*flitTx + h*(flitTx+LinkLatency), which is exactly the
// packet model's pipelined latency with PacketSize == FlitSize — the
// convergence the validation tests pin. Under contention the two models
// diverge: wormhole latency grows faster because a stalled worm holds
// multiple links at once instead of queueing at a single hop.
//
// Determinism: every transition below runs synchronously inside a typed
// event dispatch, all queues are FIFO, and no state depends on map
// order or wall time, so Stats are bit-identical across GOMAXPROCS and
// Engine.Reset reuse.

// launch decomposes message mi into packets-many worms and schedules
// their injection at time start. The message's route is already in
// m.path; each worm carries flits of equal size so the arithmetic
// matches the packet model's even byte split.
func (w *whNetwork) launch(mi int32, start float64, packets int) {
	m := &w.n.msgs[mi]
	flits := int32((m.bytes + float64(w.n.cfg.FlitSize) - 1) / float64(w.n.cfg.FlitSize))
	if flits < 1 {
		flits = 1
	}
	flitTx := m.bytes / float64(flits) / w.n.cfg.LinkBandwidth
	hops := len(m.path) - 1
	var first int32
	for k := 0; k < packets; k++ {
		wi := w.allocWorm(hops)
		wm := &w.worms[wi]
		wm.msg = mi
		wm.flits = flits
		wm.flitTx = flitTx
		if k == 0 {
			w.fillHops(wm.hop, m.path)
			first = wi
		} else {
			copy(wm.hop, w.worms[first].hop)
		}
		w.n.eng.scheduleEvent(start, event{kind: evWormInject, net: w.n.id, idx: wi})
	}
}

// fillHops writes one fresh record per hop of path: its dense link index
// and its channel under the dateline rule. Both are pure functions of the
// path, so the worms of one message copy the first one's records.
func (w *whNetwork) fillHops(hop []wormHop, path []int) {
	vc := int8(0)
	for h := range hop {
		li := int32(w.n.links.Index(path[h], path[h+1]))
		vc = datelineVC(w.dims, path, h, vc)
		hop[h] = wormHop{link: li, channel: li*vchannels + int32(vc)}
	}
}

// inject is the evWormInject handler: the worm's header requests its
// first channel at the source.
func (w *whNetwork) inject(wi int32) { w.advance(wi, 0) }

// advance starts every flit of worm wi currently eligible to cross the
// link of hop h, acquiring the channel for the header first. It stops at
// the first unmet condition: channel owned by another worm (the header
// joins the channel's FIFO and the whole worm stalls in place), flit not
// yet arrived from upstream, or downstream flit buffer full.
func (w *whNetwork) advance(wi int32, h int32) {
	wm := &w.worms[wi]
	hp := &wm.hop[h]
	ci := hp.channel
	c := &w.ch[ci]
	for hp.inj < wm.flits {
		if hp.inj == 0 && c.owner != wi {
			if wm.wait >= 0 {
				// Already queued on this channel: a body flit arriving
				// upstream re-entered advance. Enqueueing twice would
				// corrupt the intrusive FIFO.
				return
			}
			wm.head = h
			if c.owner >= 0 {
				// Header stalls: enqueue FIFO. The worm keeps every
				// upstream channel it occupies until this acquisition
				// succeeds — head-of-line blocking.
				wm.next = -1
				wm.wait = ci
				if c.qtail >= 0 {
					w.worms[c.qtail].next = wi
				} else {
					c.qhead = wi
				}
				c.qtail = wi
				return
			}
			c.owner, c.ownerHop = wi, h
		}
		if h > 0 && wm.hop[h-1].arr <= hp.inj {
			return // the next flit is still upstream
		}
		if c.credits == 0 {
			return // downstream flit buffer full: backpressure
		}
		w.startFlit(wi, h, ci)
	}
}

// startFlit reserves link time for the next flit of worm wi on hop h and
// schedules its arrival downstream. Leaving the upstream buffer returns
// that slot, which may resume a worm stalled on backpressure.
func (w *whNetwork) startFlit(wi, h, ci int32) {
	wm := &w.worms[wi]
	hp := &wm.hop[h]
	li := hp.link
	w.ch[ci].credits--
	start := w.n.eng.now
	if w.n.freeAt[li] > start {
		start = w.n.freeAt[li]
	}
	w.n.freeAt[li] = start + wm.flitTx
	w.n.busy[li] += wm.flitTx
	hp.inj++
	w.n.eng.scheduleEvent(start+wm.flitTx+w.n.cfg.LinkLatency,
		event{kind: evFlitArrive, net: w.n.id, idx: wi, link: h})
	if h > 0 {
		w.releaseCredit(wm.hop[h-1].channel)
	}
}

// releaseCredit returns one downstream-buffer slot to channel ci and
// resumes its owner, which may be stalled on a full buffer. The owner is
// not necessarily the worm the flit belonged to: after a tail release a
// successor worm may already hold the channel while the predecessor's
// flits still drain out of the buffer.
func (w *whNetwork) releaseCredit(ci int32) {
	c := &w.ch[ci]
	c.credits++
	if c.owner >= 0 {
		w.advance(c.owner, c.ownerHop)
	}
}

// releaseChannel frees channel ci after the owning worm's tail drained
// past it and grants it to the longest-waiting queued header, if any.
func (w *whNetwork) releaseChannel(ci int32) {
	c := &w.ch[ci]
	c.owner, c.ownerHop = -1, -1
	nx := c.qhead
	if nx < 0 {
		return
	}
	wm := &w.worms[nx]
	c.qhead = wm.next
	if c.qhead < 0 {
		c.qtail = -1
	}
	wm.next = -1
	wm.wait = -1
	c.owner, c.ownerHop = nx, wm.head
	w.advance(nx, wm.head)
}

// onArrive is the evFlitArrive handler: one flit of worm wi lands
// downstream of hop h. The last flit to land is the tail — its passage
// releases the channel of hop h for the next worm.
func (w *whNetwork) onArrive(wi, h int32) {
	wm := &w.worms[wi]
	hp := &wm.hop[h]
	hp.arr++
	tail := hp.arr == wm.flits
	ci := hp.channel
	if int(h) == len(wm.hop)-1 {
		// Destination: the flit is consumed at once, returning its
		// buffer slot immediately.
		w.releaseCredit(ci)
		if tail {
			w.releaseChannel(ci)
			mi := wm.msg
			w.freeWormSlot(wi)
			// packetDone may run a delivery callback that injects new
			// messages, growing the pools — touch no worm/message
			// pointers after it.
			w.n.packetDone(mi)
		}
		return
	}
	// The flit is now available at path[h+1]: let our own worm pull it
	// forward before the channel is handed to a successor.
	w.advance(wi, h+1)
	if tail {
		w.releaseChannel(ci)
	}
}
