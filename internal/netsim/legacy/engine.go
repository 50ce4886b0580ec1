// Package legacy is the frozen pre-optimization network simulator: the
// closure-per-event engine built on container/heap, with unpooled packet
// and message state. It is kept verbatim (modulo the package name) as the
// reference oracle for the rebuilt zero-alloc netsim core — the
// cross-check tests in netsim assert that the typed-event engine
// reproduces this implementation's Stats() bit for bit, and the netsim
// rows of internal/benchtab measure it as their "legacy" reference side.
//
// Do not modify this package except to track intentional semantic changes
// of the simulation model itself; any such change must be mirrored in
// netsim and re-validated by the cross-check tests.
package legacy

import "container/heap"

// Engine is a discrete-event simulation core: a time-ordered queue of
// callbacks. Events at equal times fire in scheduling order, keeping runs
// deterministic.
type Engine struct {
	pq  eventHeap
	now float64
	seq int64
}

type event struct {
	at  float64
	seq int64
	fn  func()
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at < h[j].at {
		return true
	}
	if h[j].at < h[i].at {
		return false
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old) - 1
	e := old[n]
	*h = old[:n]
	return e
}

// Now returns the current simulation time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Schedule runs fn at the given absolute simulation time. Scheduling in
// the past panics — it indicates a broken model.
func (e *Engine) Schedule(at float64, fn func()) {
	if at < e.now {
		panic("netsim: scheduling into the past")
	}
	heap.Push(&e.pq, event{at: at, seq: e.seq, fn: fn})
	e.seq++
}

// After runs fn delay seconds from now.
func (e *Engine) After(delay float64, fn func()) {
	e.Schedule(e.now+delay, fn)
}

// Run processes events until the queue is empty and returns the final
// simulation time.
func (e *Engine) Run() float64 {
	for e.pq.Len() > 0 {
		ev := heap.Pop(&e.pq).(event)
		e.now = ev.at
		ev.fn()
	}
	return e.now
}

// Pending returns the number of queued events (useful in tests).
func (e *Engine) Pending() int { return e.pq.Len() }
