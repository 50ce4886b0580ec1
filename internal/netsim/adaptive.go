package netsim

// Adaptive minimal routing: instead of the topology's fixed
// dimension-ordered route, each packet chooses — at every hop — the
// minimal next hop (a neighbor strictly closer to the destination) whose
// outgoing link frees up earliest. This spreads load over the multiple
// minimal paths a torus offers and relieves hotspots, at the cost of the
// in-order delivery guarantees deterministic routing provides. Enabled
// with Config.Adaptive; the experiment suite uses it to quantify how much
// of TopoLB's advantage survives smarter routing.

// onAdapt is the adaptive-routing packet event: the packet stands at
// p.cur; either it has arrived, or it picks the least-congested minimal
// neighbor (the lowest LinkSet row position, which is Neighbors order,
// wins ties) and reserves that link.
func (n *Network) onAdapt(pi int32) {
	p := &n.pkts[pi]
	cur, dst := int(p.cur), int(p.dst)
	if cur == dst {
		mi := p.msg
		n.freePktSlot(pi)
		n.packetDone(mi)
		return
	}
	//lint:ignore hotalloc Topology.Distance implementations are arithmetic on coordinates; zero-alloc pinned by BenchmarkNetsim allocs/op
	distCur := n.cfg.Topology.Distance(cur, dst)
	next, nextLink := -1, int32(-1)
	var bestFree float64
	first, to := n.links.Row(cur)
	for i, u := range to {
		//lint:ignore hotalloc Topology.Distance implementations are arithmetic on coordinates; zero-alloc pinned by BenchmarkNetsim allocs/op
		if n.cfg.Topology.Distance(int(u), dst) != distCur-1 {
			continue
		}
		li := first + int32(i)
		if next < 0 || n.freeAt[li] < bestFree {
			next, nextLink, bestFree = int(u), li, n.freeAt[li]
		}
	}
	if next < 0 {
		// A connected topology always has a minimal neighbor; this guards
		// against inconsistent Distance/Neighbors implementations.
		panic("netsim: no minimal next hop — inconsistent topology")
	}
	tx := n.msgs[p.msg].bytes / n.cfg.LinkBandwidth
	start := n.eng.now
	if n.freeAt[nextLink] > start {
		start = n.freeAt[nextLink]
	}
	n.freeAt[nextLink] = start + tx
	n.busy[nextLink] += tx
	p.cur = int32(next)
	n.eng.scheduleEvent(start+tx+n.cfg.LinkLatency, event{kind: evAdapt, net: n.id, idx: pi})
}
