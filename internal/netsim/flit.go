package netsim

// State records for the wormhole (flit-level) simulation mode: worm and
// virtual-channel structs, their free-list pools, and the intrusive
// header wait queues. The event flow — injection, channel acquisition,
// flit pipelining, stall/resume, tail release — lives in wormhole.go.

// defaultFlitSize is the flit payload in bytes when Config.FlitSize is
// zero. 64 bytes is in the range of BlueGene-class torus routers, whose
// wormhole networks the paper's simulations model.
const defaultFlitSize = 64

// defaultFlitBuffer is the per-(link, virtual channel) flit buffer depth
// when Config.FlitBuffer is zero. Two slots are the minimum for full
// pipeline throughput when the wire latency is below one flit time;
// four leaves headroom without hiding head-of-line blocking.
const defaultFlitBuffer = 4

// worm is one wormhole-routed packet in flight, pooled on the whNetwork.
// Its flits occupy a contiguous span of the route: every (link, VC) from
// the hop just behind the tail up to the header's hop is held by this
// worm, which is exactly the head-of-line blocking wormhole routing is
// known for. Per-hop progress is tracked with counters rather than
// per-flit identity — flits of one worm cross each link strictly in
// order, so the pair (inj, arr) determines every flit's position.
type worm struct {
	next   int32     // intrusive wait-queue link in a channel's header queue; -1 end
	wait   int32     // channel the header is queued on; -1 when not queued
	msg    int32     // parent message pool index
	flits  int32     // total flits (header + body + tail; 1 = header doubles as tail)
	head   int32     // hop the header is requesting or crossing
	flitTx float64   // seconds to serialize one flit on a link
	hop    []wormHop // one record per link of the route
}

// wormHop is a worm's record of one hop: where it crosses and how far its
// flits have got there. The handlers read nothing of the message but its
// index, so a flit event touches the worm alone.
type wormHop struct {
	link    int32 // dense link index
	channel int32 // link*vchannels + dateline virtual channel
	inj     int32 // flits that have started crossing the link
	arr     int32 // flits that have arrived downstream of the link
}

// whChannel is one (link, virtual channel) pair under wormhole routing.
// Ownership implements channel allocation: a header acquires the channel
// before its first flit may cross, the worm keeps it for its whole
// residency, and the tail releases it as it drains past. credits count
// free slots of the flit buffer at the channel's downstream end;
// qhead/qtail is the FIFO of worms whose headers stalled waiting to
// acquire, threaded through worm.next so stalling allocates nothing.
type whChannel struct {
	owner    int32 // worm holding the channel; -1 free
	ownerHop int32 // the owner's hop index on this link
	credits  int32 // free slots in the downstream flit buffer
	qhead    int32 // FIFO of stalled headers; -1 empty
	qtail    int32
}

// whNetwork augments Network with wormhole-mode state. Constructed only
// when Config.Mode == ModeWormhole.
type whNetwork struct {
	n     *Network
	ch    []whChannel // indexed link*vchannels + vc
	dims  []int       // Coordinated dims for the dateline VC rule (nil = no seams)
	depth int32       // flit buffer depth per (link, VC)

	// Free-list pool of worm records; per-hop record storage is kept on
	// reuse, so steady-state wormhole simulation does not allocate.
	worms    []worm
	freeWorm []int32
}

func newWhNetwork(n *Network) *whNetwork {
	w := &whNetwork{
		n:     n,
		ch:    make([]whChannel, n.links.Len()*vchannels),
		depth: int32(n.cfg.FlitBuffer),
	}
	if co, ok := n.cfg.Topology.(interface{ Dims() []int }); ok {
		w.dims = co.Dims()
	}
	for i := range w.ch {
		w.ch[i].owner = -1
		w.ch[i].ownerHop = -1
		w.ch[i].credits = w.depth
		w.ch[i].qhead = -1
		w.ch[i].qtail = -1
	}
	return w
}

// allocWorm takes a worm record from the pool (or grows it) and sizes its
// hop records for a route of hops links; the caller fills every record.
// Reused records are brought up to the network's high-water route length
// in one step, mirroring the message-path trick: free-list recycling
// permutes slots across runs, and growing a different buffer each time
// would spoil the zero-alloc steady state.
func (w *whNetwork) allocWorm(hops int) int32 {
	var wi int32
	if k := len(w.freeWorm); k > 0 {
		wi = w.freeWorm[k-1]
		w.freeWorm = w.freeWorm[:k-1]
	} else {
		w.worms = append(w.worms, worm{})
		wi = int32(len(w.worms) - 1)
	}
	wm := &w.worms[wi]
	// The upgrade condition compares against the high-water route length,
	// not this route's hops: free-list recycling permutes slots across
	// runs, so upgrading lazily per need would re-allocate a different
	// slot every run instead of reaching a fixed point.
	if need := w.n.pathCap - 1; cap(wm.hop) < need {
		wm.hop = make([]wormHop, hops, need)
	} else {
		wm.hop = wm.hop[:hops]
	}
	wm.next = -1
	wm.wait = -1
	wm.head = 0
	return wi
}

// freeWormSlot returns a worm record to the pool, keeping its hop
// storage.
func (w *whNetwork) freeWormSlot(wi int32) {
	//lint:ignore hotalloc free-list capacity equals the worm pool size; append never grows after warm-up
	w.freeWorm = append(w.freeWorm, wi)
}
