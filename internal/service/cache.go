package service

import (
	"sync"
)

// resultCache is a bounded LRU of marshaled response bodies keyed by job
// content hash. Because each body is a pure function of its key, hits are
// exactly the bytes a fresh computation would produce — the cache can
// never serve a stale or divergent response. Bounded by entry count and
// total body bytes, whichever trips first.
type resultCache struct {
	mu         sync.Mutex
	entries    map[string]*cacheEntry
	head, tail *cacheEntry // most- and least-recently used
	bytes      int64
	maxEntries int
	maxBytes   int64

	hits, misses, evictions int64
}

type cacheEntry struct {
	key        string
	body       []byte
	prev, next *cacheEntry
}

func newResultCache(maxEntries int, maxBytes int64) *resultCache {
	return &resultCache{
		entries:    make(map[string]*cacheEntry),
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
	}
}

// get returns the cached body for key, or nil. Bodies are immutable;
// callers must not modify the returned slice.
func (c *resultCache) get(key string) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		c.misses++
		return nil
	}
	c.hits++
	c.moveToFront(e)
	return e.body
}

// put stores body under key, evicting least-recently-used entries to stay
// within bounds. Storing an existing key refreshes its recency (the body
// is identical by the determinism contract, so it is not replaced).
func (c *resultCache) put(key string, body []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.maxEntries <= 0 || int64(len(body)) > c.maxBytes {
		return // cache disabled, or a single body would overflow it
	}
	if e, ok := c.entries[key]; ok {
		c.moveToFront(e)
		return
	}
	e := &cacheEntry{key: key, body: body}
	c.entries[key] = e
	c.pushFront(e)
	c.bytes += int64(len(body))
	for len(c.entries) > c.maxEntries || c.bytes > c.maxBytes {
		lru := c.tail
		if lru == nil {
			break
		}
		c.remove(lru)
		delete(c.entries, lru.key)
		c.bytes -= int64(len(lru.body))
		c.evictions++
	}
}

// counters returns (hits, misses, evictions, entries, bytes).
func (c *resultCache) counters() (int64, int64, int64, int, int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.evictions, len(c.entries), c.bytes
}

func (c *resultCache) pushFront(e *cacheEntry) {
	e.prev = nil
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *resultCache) remove(e *cacheEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (c *resultCache) moveToFront(e *cacheEntry) {
	if c.head == e {
		return
	}
	c.remove(e)
	c.pushFront(e)
}

// flight states. A flight is created queued (its creator builds the job's
// operands, then enqueues it), moves to running when a worker picks it
// up, and ends done. It ends aborted instead if its creator abandoned it
// or every waiter cancelled before a worker claimed it.
const (
	flightQueued = iota
	flightRunning
	flightDone
	flightAborted
)

// flight is one in-progress computation shared by every concurrent
// request with the same content key (singleflight). The table's mutex
// guards state and waiters; body/status/err are immutable once done is
// closed.
type flight struct {
	key     string
	job     *job
	state   int
	waiters int
	done    chan struct{}

	body   []byte
	status int
	err    error
}

// flightTable indexes in-flight computations by content key.
type flightTable struct {
	mu      sync.Mutex
	flights map[string]*flight

	joins int64 // requests that attached to an existing flight
}

func newFlightTable() *flightTable {
	return &flightTable{flights: make(map[string]*flight)}
}

// join returns the flight for j's key, creating one if none is in
// progress. created reports whether the caller owns enqueueing it. The
// caller holds one waiter slot either way and must release it with leave
// (on cancellation) or by observing done.
func (t *flightTable) join(j *job) (f *flight, created bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if f, ok := t.flights[j.key]; ok {
		f.waiters++
		t.joins++
		return f, false
	}
	f = &flight{key: j.key, job: j, state: flightQueued, waiters: 1, done: make(chan struct{})}
	t.flights[j.key] = f
	return f, true
}

// leave drops one waiter after a cancellation. If the flight is still
// queued and nobody else is waiting, it is aborted: removed from the
// table so later requests start fresh, and its done channel closed so
// any racing joiner unblocks. The aborted entry stays in the queue
// holding its admission slot — the worker that eventually pops it skips
// the computation and releases the slot. That keeps queue occupancy equal
// to held slots, so an admitted enqueue can never block on a full
// channel. Returns whether the flight was aborted.
func (t *flightTable) leave(f *flight) (aborted bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	f.waiters--
	if f.waiters > 0 || f.state != flightQueued {
		return false
	}
	f.state = flightAborted
	f.status = 499
	f.err = badJob(499, "job: cancelled before a worker picked it up")
	delete(t.flights, f.key)
	close(f.done)
	return true
}

// claim marks a queued flight running. It returns false for flights that
// were aborted while queued; the worker skips those.
func (t *flightTable) claim(f *flight) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if f.state != flightQueued {
		return false
	}
	f.state = flightRunning
	return true
}

// finish publishes a flight's result and removes it from the table.
func (t *flightTable) finish(f *flight, body []byte, status int, err error) {
	t.mu.Lock()
	f.body, f.status, f.err = body, status, err
	f.state = flightDone
	delete(t.flights, f.key)
	t.mu.Unlock()
	close(f.done)
}

// abandon removes a flight its creator could not enqueue — the job failed
// to build, or admission refused it — and publishes err to any waiters
// that joined in the meantime. The flight holds no admission slot.
func (t *flightTable) abandon(f *flight, status int, err error) {
	t.mu.Lock()
	f.status, f.err = status, err
	f.state = flightAborted
	delete(t.flights, f.key)
	t.mu.Unlock()
	close(f.done)
}

func (t *flightTable) joinCount() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.joins
}
