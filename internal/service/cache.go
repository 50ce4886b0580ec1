package service

import (
	"container/list"
	"sync"
)

// resultCache is a bounded LRU of marshaled response bodies keyed by job
// content hash. Because each body is a pure function of its key, hits are
// exactly the bytes a fresh computation would produce — the cache can
// never serve a stale or divergent response. Bounded by entry count and
// total body bytes, whichever trips first.
//
// The entries are also indexed by spelling: the SHA-256 of a raw /v1/map
// body that was named to the entry's key. For one server, naming is a
// pure function of the body bytes (and Config.MaxTasks), so a body whose
// digest is indexed would name to that key again and can be answered
// without decoding or naming it. Each entry holds at most one spelling,
// the latest, and it leaves the index with the entry, so the entry and
// byte bounds cap the index too.
type resultCache struct {
	mu         sync.Mutex
	entries    map[string]*cacheEntry
	spelled    map[[32]byte]*cacheEntry
	lru        *list.List // of *cacheEntry, most recently used at the front
	bytes      int64
	maxEntries int
	maxBytes   int64

	hits, misses, evictions, spelledHits int64
}

type cacheEntry struct {
	key      string
	body     []byte
	spelling [32]byte      // its digest in resultCache.spelled, if it is there
	elem     *list.Element // protected by the cache's lock
}

func newResultCache(maxEntries int, maxBytes int64) *resultCache {
	return &resultCache{
		entries:    make(map[string]*cacheEntry),
		spelled:    make(map[[32]byte]*cacheEntry),
		lru:        list.New(),
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
	}
}

// getSpelled returns the body and key of the entry whose spelling is d,
// or a nil body. A hit counts as a result-cache hit; a miss counts
// nothing, because the request goes on to name its job and get counts it.
func (c *resultCache) getSpelled(d [32]byte) ([]byte, string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.spelled[d]
	if !ok {
		return nil, ""
	}
	c.hits++
	c.spelledHits++
	c.lru.MoveToFront(e.elem)
	return e.body, e.key
}

// spell indexes d as the spelling of key's entry, replacing the entry's
// previous spelling. It does nothing when key is not cached: a body too
// large to cache, or one evicted since it was computed, is not indexed.
func (c *resultCache) spell(d [32]byte, key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		return
	}
	c.unspell(e)
	e.spelling = d
	c.spelled[d] = e
}

// unspell drops e's spelling from the index, if it has one.
func (c *resultCache) unspell(e *cacheEntry) {
	if c.spelled[e.spelling] == e {
		delete(c.spelled, e.spelling)
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
	c.lru.MoveToFront(e.elem)
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
		c.lru.MoveToFront(e.elem)
		return
	}
	e := &cacheEntry{key: key, body: body}
	e.elem = c.lru.PushFront(e)
	c.entries[key] = e
	c.bytes += int64(len(body))
	// The new entry alone fits both bounds (checked above), so the loop
	// stops before the list is empty.
	for len(c.entries) > c.maxEntries || c.bytes > c.maxBytes {
		lru := c.lru.Remove(c.lru.Back()).(*cacheEntry)
		delete(c.entries, lru.key)
		c.unspell(lru)
		c.bytes -= int64(len(lru.body))
		c.evictions++
	}
}

func (c *resultCache) counters() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits: c.hits, Misses: c.misses, Evictions: c.evictions,
		Entries: len(c.entries), Bytes: c.bytes,
		SpelledHits: c.spelledHits, Spellings: len(c.spelled),
	}
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
