// Package netsim is a discrete-event interconnection-network simulator in
// the spirit of BigNetSim (Zheng et al.), which the paper uses for its
// §5.3 latency and completion-time studies. Messages are optionally split
// into packets, routed deterministically over the topology's links, and
// serialized over each link's finite bandwidth; contention appears as
// queueing delay on busy links.
//
// Two contention models are available (Config.Mode). The default packet
// model is message-level store-and-forward with per-link FIFO
// reservation: a packet arriving at a node reserves the next link from the
// moment it becomes free, so concurrent flows through a link accumulate
// delay exactly as queued packets would. This captures the phenomenon the
// paper measures — latency exploding once offered load approaches link
// capacity. The wormhole model (ModeWormhole, see wormhole.go) goes below
// the packet level the way BigNetSim does: packets decompose into flits
// that pipeline hop by hop, a header acquires one virtual channel per hop
// and the whole worm stalls — holding every upstream channel it occupies —
// when the header blocks, reproducing the head-of-line blocking of
// BlueGene-class wormhole routers.
//
// # Performance architecture
//
// The event core is built for throughput: events are small typed records
// (a tagged union of packet-arrival, link-free, buffer-arrival, …) stored
// by value in a flat slice-backed binary heap specialized to the event
// type — no container/heap, no `any` boxing, and no per-event closure
// allocation on the packet hot paths. Packet and in-flight-message state
// live in free-list pools on the Network, so steady-state simulation does
// not allocate. When the pending-event count crosses a threshold (dense
// packet workloads), the engine transparently migrates the queue into a
// calendar queue (bucketed scheduler, amortized O(1) per operation) and
// migrates back when the queue drains; both schedulers dispatch the exact
// (time, seq) total order, so results are bit-identical either way. The
// frozen pre-optimization implementation is kept in the legacy subpackage
// as a differential-testing oracle.
package netsim

// Engine is a discrete-event simulation core: a time-ordered queue of
// typed event records (with a generic callback kind for external users).
// Events at equal times fire in scheduling order, keeping runs
// deterministic. The zero value is ready to use; Reset recycles an
// engine — and its queue storage — for the next simulation of a sweep.
type Engine struct {
	heap      []event // binary min-heap on (at, seq)
	cal       calQueue
	inCal     bool
	now       float64
	seq       int64
	processed int64
	// calUp is the SetCalendarThreshold override: 0 means the default,
	// negative disables the calendar queue.
	calUp int
	// The queue headers, clock and counters above are written on every
	// event, and an unpadded Engine is small enough that two fresh ones
	// from the pool can lie side by side: two simulator threads then
	// contend for one cache line (measured: a sweep pass at 3.2–4.0 s
	// instead of 2.1 s in about one process in three). The tail keeps a
	// neighbour's fields at least enginePad bytes from this engine's.
	_ [enginePad]byte
}

// enginePad is two cache lines: adjacent-line prefetch couples lines in
// pairs, so one line of distance is not enough.
const enginePad = 128

// evKind tags the typed event union. Generic callbacks (evFunc) remain for
// external schedulers like trace.Replay; every per-packet event on the
// simulator's own hot paths is a closure-free typed record.
type evKind uint8

const (
	evFunc       evKind = iota // run fn
	evSelf                     // deliver a self-send; idx is a message index
	evHop                      // deterministic-routing packet step; idx is a packet index
	evAdapt                    // adaptive-routing packet step; idx is a packet index
	evBufReq                   // buffered injection: request the first hop; idx is a packet index
	evBufFree                  // buffered: link `link` finished transmitting packet idx
	evBufArrive                // buffered: packet idx lands downstream of link `link`
	evWormInject               // wormhole injection: header requests the first channel; idx is a worm index
	evFlitArrive               // wormhole: a flit of worm idx lands downstream of hop `link`
)

// event is one scheduled occurrence. Typed kinds carry pool indices into
// the owning Network instead of captured state, so scheduling allocates
// nothing.
type event struct {
	at   float64
	seq  int64
	fn   func()   // evFunc only
	net  *Network // owner of idx/link for typed kinds
	idx  int32    // packet, message, or worm pool index (kind-specific)
	link int32    // link index (evBufFree, evBufArrive) or hop index (evFlitArrive)
	kind evKind
}

// evLess orders events by time, then by scheduling sequence — the same
// total order as the original closure-heap engine, which is what makes
// every downstream statistic reproducible.
func evLess(a, b *event) bool {
	if a.at < b.at {
		return true
	}
	if b.at < a.at {
		return false
	}
	return a.seq < b.seq
}

// defaultCalendarThreshold is the pending-event count above which the
// engine migrates the queue into the calendar scheduler. Sparse runs
// (message-level simulations, trace replays of small programs) stay on
// the binary heap; packet-dense runs cross it almost immediately.
const defaultCalendarThreshold = 4096

// Now returns the current simulation time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Processed returns the number of events dispatched since the last Reset
// (events/second throughput metrics divide by wall time).
func (e *Engine) Processed() int64 { return e.processed }

// SetCalendarThreshold tunes scheduler selection: the engine switches to
// the calendar queue when the pending-event count reaches n, and back to
// the binary heap when it falls below n/8. n == 0 restores the default;
// n < 0 disables the calendar queue entirely (pure binary heap). Intended
// for benchmarks and tests; results are bit-identical for every setting.
func (e *Engine) SetCalendarThreshold(n int) { e.calUp = n }

func (e *Engine) calThreshold() int {
	if e.calUp == 0 {
		return defaultCalendarThreshold
	}
	return e.calUp
}

// Schedule runs fn at the given absolute simulation time. Scheduling in
// the past panics — it indicates a broken model.
func (e *Engine) Schedule(at float64, fn func()) {
	e.scheduleEvent(event{at: at, kind: evFunc, fn: fn})
}

// After runs fn delay seconds from now.
func (e *Engine) After(delay float64, fn func()) {
	e.Schedule(e.now+delay, fn)
}

// scheduleEvent assigns the next sequence number and enqueues ev on
// whichever scheduler is active, migrating to the calendar queue when the
// heap grows past the density threshold.
func (e *Engine) scheduleEvent(ev event) {
	if ev.at < e.now {
		panic("netsim: scheduling into the past")
	}
	ev.seq = e.seq
	e.seq++
	if e.inCal {
		e.cal.push(ev)
		return
	}
	e.heapPush(ev)
	if th := e.calThreshold(); th > 0 && len(e.heap) >= th {
		e.switchToCalendar()
	}
}

// pop removes and returns the globally next event, handling scheduler
// migration. Both schedulers agree on the (at, seq) order, so migration
// is invisible to the simulation.
func (e *Engine) pop() (event, bool) {
	if e.inCal {
		if e.cal.n == 0 {
			e.inCal = false
		} else if th := e.calThreshold(); th < 0 || e.cal.n < th/8 {
			e.switchToHeap()
		} else {
			return e.cal.pop(), true
		}
	}
	if len(e.heap) == 0 {
		return event{}, false
	}
	return e.heapPop(), true
}

// Run processes events until the queue is empty and returns the final
// simulation time.
//
//lint:hotpath netsim steady state: event dispatch, packet, buffered and wormhole paths (BenchmarkNetsim*)
func (e *Engine) Run() float64 {
	for {
		ev, ok := e.pop()
		if !ok {
			return e.now
		}
		e.now = ev.at
		e.processed++
		switch ev.kind {
		case evFunc:
			//lint:ignore hotalloc evFunc callbacks inject traffic from drivers outside the steady-state loop; packet-path allocs/op pinned at 0 by benchmarks
			ev.fn()
		case evSelf:
			ev.net.onSelf(ev.idx)
		case evHop:
			ev.net.onHop(ev.idx)
		case evAdapt:
			ev.net.onAdapt(ev.idx)
		case evBufReq:
			ev.net.buf.request(ev.idx)
		case evBufFree:
			ev.net.buf.onFree(ev.link, ev.idx)
		case evBufArrive:
			ev.net.buf.onArrive(ev.link, ev.idx)
		case evWormInject:
			ev.net.wh.inject(ev.idx)
		case evFlitArrive:
			ev.net.wh.onArrive(ev.idx, ev.link)
		}
	}
}

// Pending returns the number of queued events (useful in tests).
func (e *Engine) Pending() int { return len(e.heap) + e.cal.n }

// Reset returns the engine to its initial state while keeping the queue
// storage of both schedulers, so one engine arena can serve a whole
// experiment sweep without reallocating.
func (e *Engine) Reset() {
	clear(e.heap)
	e.heap = e.heap[:0]
	e.cal.reset()
	e.inCal = false
	e.now, e.seq, e.processed = 0, 0, 0
}

// switchToCalendar migrates every pending event from the heap into a
// freshly calibrated calendar queue.
func (e *Engine) switchToCalendar() {
	e.cal.init(e.heap)
	clear(e.heap)
	e.heap = e.heap[:0]
	e.inCal = true
}

// switchToHeap drains the calendar queue back into the binary heap (used
// when the pending count falls low enough that heap ops are cheaper than
// bucket scans).
func (e *Engine) switchToHeap() {
	//lint:ignore hotalloc one closure per queue-mode switch, not per event
	e.cal.drainTo(func(ev event) { e.heapPush(ev) })
	e.inCal = false
}

// heapPush inserts ev into the flat binary heap.
func (e *Engine) heapPush(ev event) {
	//lint:ignore hotalloc heap storage reaches steady-state capacity during warm-up; append then never grows
	h := append(e.heap, ev)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !evLess(&h[i], &h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	e.heap = h
}

// heapPop removes the (at, seq)-minimum event.
func (e *Engine) heapPop() event {
	h := e.heap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = event{} // release fn/net references
	h = h[:n]
	e.heap = h
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && evLess(&h[r], &h[l]) {
			m = r
		}
		if !evLess(&h[m], &h[i]) {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	return top
}
