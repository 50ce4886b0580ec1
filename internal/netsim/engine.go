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
// Uniform flit and packet times make the links step in lock-step, so two
// events in three (wormhole) to nine in ten (buffered) carry exactly the
// timestamp of the event dispatched before them. The event queue is built
// on that: events of one timestamp form a run, a FIFO threaded through
// one slab of 16-byte pointer-free records, and the priority queue is a
// monotone radix heap of runs, not of events, threaded through the run
// table. A direct-mapped cache keyed by the bits of the time finds the
// run an event joins; a miss opens a second run for the same time, which
// costs a run record and never the (time, seq) dispatch order (see
// Engine). A wormhole worm carries its own per-hop records (link,
// channel, flit counters), so a flit event reads the worm alone.
// Events are typed records (a tagged union of packet-arrival, link-free,
// buffer-arrival, …) — no container/heap, no `any` boxing, no per-event
// closure on the packet hot paths, and nothing in the queue for the
// collector to scan. Packet and in-flight-message state live in
// free-list pools on the Network, so steady-state simulation does not
// allocate.
//
// The oracles are tests. refEngine (scheduler_test.go) sorts every pending
// event and holds the run queue to the (time, seq) order. refNetwork
// (reference_test.go) is the packet model written the plain way, one
// closure per event on refEngine; random tori, meshes and hypercubes,
// configs and staggered sends hold Network to it on every Stats word and
// latency, deterministic and adaptive. Buffered and wormhole mode are held
// by golden Stats words and latency-stream hashes (golden_test.go).
package netsim

import (
	"math"
	"math/bits"
)

// Engine is a discrete-event simulation core: a time-ordered queue of
// typed event records (with a generic callback kind for external users).
// Events at equal times fire in scheduling order, keeping runs
// deterministic. The zero value is ready to use; Reset recycles an
// engine — and its queue storage — for the next simulation of a sweep.
//
// The queue is a radix heap of runs (Ahuja, Mehlhorn, Orlin and Tarjan,
// 1990). A run is the FIFO of events scheduled for one exact time while
// the time cache pointed at it; its key is the bits of its time, which
// order like the times because every time is at or after Now ≥ 0 and −0
// is folded into +0. A run waits in bucket Len64(key ^ bits(Now)), a list
// threaded through run.qnext. Popping from an empty bucket 0 takes the
// lowest non-empty bucket, finds its minimum key — the new Now — and
// moves each of its runs to the bucket that key names, always a lower
// one: only the minimum's runs reach bucket 0, inserted in seq order.
// scheduleEvent appends to the run the cache names when that run's time
// has the same bits, and otherwise opens a run, overwrites the cache slot
// and files the run: in bucket 0, at the tail, when its time is Now.
//
// Four facts make the dispatch order the strict (time, seq) order however
// the cache behaves. Runs leave the queue in time order, since bucket 0
// holds exactly the runs at Now and every other bucket holds later times.
// Bucket 0 is kept in order of each run's first seq: a run reaching it by
// redistribution is inserted by seq, and a run opened at Now has a larger
// first seq than any run queued. Opening a run always overwrites its slot,
// so an older run of the same time is never appended to again and all its
// seqs precede the newer run's first. And an event for Now itself joins
// either the tail of the run being drained or a newer run, which bucket 0
// dispatches after it. A cache miss or eviction therefore costs one extra
// run, never order.
type Engine struct {
	runs []run    // run table; entry 0 is the nil sentinel
	evs  []event  // event slab; entry 0 is the nil sentinel
	fns  []func() // Schedule's callbacks; an evFunc event carries its slot
	nets []*Network

	freeFn  []int32 // vacant fns slots
	freeRun int32   // free runs, linked through run.head
	freeEv  int32   // free events, linked through event.next

	now       float64
	seq       int64
	processed int64
	opened    int64 // runs opened since Reset; seq/opened is the events-per-run ratio

	// The radix queue: bucket[b] lists the runs whose key first differs
	// from bits(Now) at bit b-1, and bucket[0] the runs at Now in seq
	// order, ending at tail0. filled has bit b set iff bucket[b], b ≥ 1,
	// is non-empty. Keys never set bit 63, so 64 buckets suffice.
	filled uint64
	tail0  int32
	bucket [64]int32

	// cache maps a hash of a time's bits to the newest run opened for a
	// time hashing there. An entry is only a hint: it is believed when the
	// run it names carries exactly the wanted bits (a freed run's time is
	// NaN, which no event can have).
	cache [timeCacheSize]int32

	// The queue headers, clock, counters and cache above are written on
	// every event. Two fresh engines from the pool can lie side by side,
	// and without a gap this engine's last words and the next one's first
	// share a cache line that two simulator threads then fight over
	// (measured in PR 12, when the whole struct was that small: a sweep
	// pass at 3.2–4.0 s instead of 2.1 s in about one process in three).
	// The tail keeps a neighbour's fields at least enginePad bytes from
	// this engine's.
	_ [enginePad]byte
}

// enginePad is two cache lines: adjacent-line prefetch couples lines in
// pairs, so one line of distance is not enough.
const enginePad = 128

// timeCacheSize is the number of direct-mapped time-cache slots (a power
// of two). The sweep's replays hold a few hundred distinct pending times
// at once; at 1024 slots two live times seldom share one.
const (
	timeCacheBits = 10
	timeCacheSize = 1 << timeCacheBits
)

// cacheSlot spreads a time's bits over the cache (Fibonacci hashing: the
// times of one simulation differ mostly in their low mantissa bits).
func cacheSlot(key uint64) uint64 {
	return (key * 0x9E3779B97F4A7C15) >> (64 - timeCacheBits)
}

// evKind tags the typed event union. Generic callbacks (evFunc) remain for
// external schedulers like trace.Replay; every per-packet event on the
// simulator's own hot paths is a closure-free typed record.
type evKind uint8

const (
	evFunc       evKind = iota // run fns[idx]
	evSelf                     // deliver a self-send; idx is a message index
	evHop                      // deterministic-routing packet step; idx is a packet index
	evAdapt                    // adaptive-routing packet step; idx is a packet index
	evBufReq                   // buffered injection: request the first hop; idx is a packet index
	evBufFree                  // buffered: link `link` finished transmitting packet idx
	evBufArrive                // buffered: packet idx lands downstream of link `link`
	evWormInject               // wormhole injection: header requests the first channel; idx is a worm index
	evFlitArrive               // wormhole: a flit of worm idx lands downstream of hop `link`
)

// event is one scheduled occurrence: sixteen pointer-free bytes. Its time
// is its run's; typed kinds carry pool indices into the owning Network
// (itself an index into Engine.nets) instead of captured state, so
// scheduling allocates nothing and the collector never scans the queue.
type event struct {
	next int32  // following event of the run (or free list); 0 ends it
	idx  int32  // packet, message, worm or callback index (kind-specific)
	link int32  // link index (evBufFree, evBufArrive) or hop index (evFlitArrive)
	net  uint16 // Engine.nets index of the owner of idx/link (typed kinds)
	kind evKind
}

// run is the FIFO of events sharing one timestamp. Runs of one time
// dispatch in the order of seq, the seq of their first event — the same
// total order as the original closure-heap engine's per-event (time, seq),
// which is what makes every downstream statistic reproducible.
type run struct {
	at         float64 // NaN while the run is on the free list
	seq        int64
	head, tail int32 // event slab indices; head is 0 once drained
	qnext      int32 // next run of its bucket; 0 ends it
}

// Now returns the current simulation time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Processed returns the number of events dispatched since the last Reset
// (events/second throughput metrics divide by wall time).
func (e *Engine) Processed() int64 { return e.processed }

// Schedule runs fn at the given absolute simulation time. Scheduling in
// the past panics — it indicates a broken model.
func (e *Engine) Schedule(at float64, fn func()) {
	var slot int32
	if k := len(e.freeFn); k > 0 {
		slot = e.freeFn[k-1]
		e.freeFn = e.freeFn[:k-1]
		e.fns[slot] = fn
	} else {
		slot = int32(len(e.fns))
		e.fns = append(e.fns, fn)
	}
	e.scheduleEvent(at, event{kind: evFunc, idx: slot})
}

// After runs fn delay seconds from now.
func (e *Engine) After(delay float64, fn func()) {
	e.Schedule(e.now+delay, fn)
}

// register enters n in the table typed events name their owner by.
func (e *Engine) register(n *Network) uint16 {
	if len(e.nets) > math.MaxUint16 {
		panic("netsim: too many networks on one engine")
	}
	e.nets = append(e.nets, n)
	return uint16(len(e.nets) - 1)
}

// scheduleEvent assigns the next sequence number and queues ev at time
// at: on the run the time cache names if that run has exactly this time,
// else on a run of its own. NaN fails the past check like any time that
// is not at or after Now.
func (e *Engine) scheduleEvent(at float64, ev event) {
	if !(at >= e.now) {
		panic("netsim: scheduling into the past")
	}
	key := math.Float64bits(at)
	if key == 1<<63 {
		// -0 and +0 are one time but two bit patterns; without this they
		// would open two runs that each keep growing, and interleave.
		key, at = 0, 0
	}
	seq := e.seq
	e.seq++

	i := e.freeEv
	if i != 0 {
		e.freeEv = e.evs[i].next
	} else {
		if len(e.evs) == 0 {
			//lint:ignore hotalloc the nil sentinel, first entry after a Reset; within capacity once warm
			e.evs = append(e.evs, event{})
		}
		i = int32(len(e.evs))
		//lint:ignore hotalloc the event slab reaches steady-state capacity during warm-up; append then never grows
		e.evs = append(e.evs, event{})
	}
	ev.next = 0
	e.evs[i] = ev

	slot := &e.cache[cacheSlot(key)]
	if r := *slot; r != 0 && math.Float64bits(e.runs[r].at) == key {
		rn := &e.runs[r]
		if rn.head == 0 { // the run being drained, its last event dispatching now
			rn.head = i
		} else {
			e.evs[rn.tail].next = i
		}
		rn.tail = i
		return
	}

	r := e.freeRun
	if r != 0 {
		e.freeRun = e.runs[r].head
	} else {
		if len(e.runs) == 0 {
			//lint:ignore hotalloc the nil sentinel, first entry after a Reset; within capacity once warm
			e.runs = append(e.runs, run{at: math.NaN()})
		}
		r = int32(len(e.runs))
		//lint:ignore hotalloc the run table reaches steady-state capacity during warm-up; append then never grows
		e.runs = append(e.runs, run{})
	}
	e.runs[r] = run{at: at, seq: seq, head: i, tail: i}
	*slot = r
	e.opened++
	if b := bits.Len64(key ^ math.Float64bits(e.now)); b != 0 {
		e.runs[r].qnext = e.bucket[b]
		e.bucket[b] = r
		e.filled |= 1 << b
	} else if e.bucket[0] == 0 {
		e.bucket[0], e.tail0 = r, r
	} else {
		e.runs[e.tail0].qnext = r
		e.tail0 = r
	}
}

// Run processes events until the queue is empty and returns the final
// simulation time.
//
//lint:hotpath netsim steady state: event dispatch, packet, buffered and wormhole paths (BenchmarkNetsim*)
func (e *Engine) Run() float64 {
	for {
		r := e.popRun()
		if r == 0 {
			break
		}
		e.now = e.runs[r].at
		// Handlers may append to this very run and may grow the slab and
		// the run table, so every step re-reads both.
		for {
			i := e.runs[r].head
			if i == 0 {
				break
			}
			ev := e.evs[i]
			e.runs[r].head = ev.next
			e.evs[i].next = e.freeEv
			e.freeEv = i
			e.processed++
			switch ev.kind {
			case evFunc:
				fn := e.fns[ev.idx]
				e.fns[ev.idx] = nil
				//lint:ignore hotalloc free-slot capacity equals the callback table's; append never grows after warm-up
				e.freeFn = append(e.freeFn, ev.idx)
				//lint:ignore hotalloc evFunc callbacks inject traffic from drivers outside the steady-state loop; packet-path allocs/op pinned at 0 by benchmarks
				fn()
			case evSelf:
				e.nets[ev.net].onSelf(ev.idx)
			case evHop:
				e.nets[ev.net].onHop(ev.idx)
			case evAdapt:
				e.nets[ev.net].onAdapt(ev.idx)
			case evBufReq:
				e.nets[ev.net].buf.request(ev.idx)
			case evBufFree:
				e.nets[ev.net].buf.onFree(ev.link, ev.idx)
			case evBufArrive:
				e.nets[ev.net].buf.onArrive(ev.link, ev.idx)
			case evWormInject:
				e.nets[ev.net].wh.inject(ev.idx)
			case evFlitArrive:
				e.nets[ev.net].wh.onArrive(ev.idx, ev.link)
			}
		}
		e.runs[r] = run{at: math.NaN(), head: e.freeRun}
		e.freeRun = r
	}
	return e.now
}

// Pending returns the number of queued events (useful in tests).
func (e *Engine) Pending() int { return int(e.seq - e.processed) }

// Reset returns the engine to its initial state while keeping the queue
// storage, so one engine arena can serve a whole experiment sweep without
// reallocating. Networks built on the engine before the Reset register
// themselves again on their next Send.
func (e *Engine) Reset() {
	e.runs = e.runs[:0]
	e.evs = e.evs[:0]
	clear(e.fns)
	e.fns = e.fns[:0]
	clear(e.nets)
	e.nets = e.nets[:0]
	e.freeFn = e.freeFn[:0]
	e.freeRun, e.freeEv = 0, 0
	e.filled, e.tail0 = 0, 0
	e.bucket = [64]int32{}
	e.cache = [timeCacheSize]int32{}
	e.now, e.seq, e.processed, e.opened = 0, 0, 0, 0
}

// popRun removes the first run in (time, seq) order and returns it, or 0
// when the queue is empty. With bucket 0 empty it redistributes the
// lowest non-empty bucket around that bucket's minimum key, which the
// caller then makes Now.
func (e *Engine) popRun() int32 {
	if e.bucket[0] == 0 {
		if e.filled == 0 {
			return 0
		}
		b := bits.TrailingZeros64(e.filled)
		e.filled &^= 1 << b
		head := e.bucket[b]
		e.bucket[b] = 0
		least := uint64(math.MaxUint64)
		for r := head; r != 0; r = e.runs[r].qnext {
			least = min(least, math.Float64bits(e.runs[r].at))
		}
		for r := head; r != 0; {
			rn := &e.runs[r]
			next := rn.qnext
			if d := bits.Len64(math.Float64bits(rn.at) ^ least); d != 0 {
				rn.qnext = e.bucket[d]
				e.bucket[d] = r
				e.filled |= 1 << d
			} else {
				// A run of the new Now: insert it by seq, since a bucket
				// keeps no order and runs of one time may share it.
				p := &e.bucket[0]
				for *p != 0 && e.runs[*p].seq < rn.seq {
					p = &e.runs[*p].qnext
				}
				rn.qnext = *p
				*p = r
				if rn.qnext == 0 {
					e.tail0 = r
				}
			}
			r = next
		}
	}
	r := e.bucket[0]
	e.bucket[0] = e.runs[r].qnext
	return r
}
