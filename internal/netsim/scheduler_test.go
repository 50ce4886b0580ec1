package netsim

// Differential tests of the run queue: whatever the time cache does —
// hit, miss, collide, evict — the engine must dispatch the strict
// (time, seq) order. The oracle is a reference engine that keeps every
// pending event in one slice and stably sorts it by time; each stream
// below is a program written against the API the two engines share, run
// on both, and compared dispatch by dispatch.

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"unsafe"

	"repro/internal/topology"
)

// sched is what a stream needs of an engine.
type sched interface {
	Schedule(at float64, fn func())
	After(delay float64, fn func())
	Now() float64
	Run() float64
}

// refEngine is the order oracle: events are appended in scheduling order
// and a stable sort by time alone therefore yields (time, seq).
type refEngine struct {
	now    float64
	q      []refEvent
	sorted bool
}

type refEvent struct {
	at float64
	fn func()
}

func (r *refEngine) Now() float64 { return r.now }

func (r *refEngine) Schedule(at float64, fn func()) {
	if !(at >= r.now) {
		panic("refEngine: scheduling into the past")
	}
	r.q = append(r.q, refEvent{at, fn})
	r.sorted = false
}

func (r *refEngine) After(delay float64, fn func()) { r.Schedule(r.now+delay, fn) }

func (r *refEngine) Run() float64 {
	for len(r.q) > 0 {
		if !r.sorted {
			// Everything already queued precedes, in seq, everything
			// appended since the last sort, and stability keeps it so.
			sort.SliceStable(r.q, func(i, j int) bool { return r.q[i].at < r.q[j].at })
			r.sorted = true
		}
		ev := r.q[0]
		r.q = r.q[1:]
		r.now = ev.at
		ev.fn()
	}
	return r.now
}

// dispatch is one logged handler call.
type dispatch struct {
	id int
	at float64
}

// stream is a program over an engine; it calls log from every handler.
type stream func(s sched, log func(id int))

// runOn executes prog on s and returns the dispatch log and final time.
func runOn(s sched, prog stream) ([]dispatch, float64) {
	var out []dispatch
	prog(s, func(id int) { out = append(out, dispatch{id, s.Now()}) })
	return out, s.Run()
}

// checkStream runs prog on a fresh Engine and on the oracle, fails on the
// first difference, and returns the engine for mechanism assertions.
func checkStream(t testing.TB, name string, prog stream) *Engine {
	t.Helper()
	eng := &Engine{}
	got, gotEnd := runOn(eng, prog)
	want, wantEnd := runOn(&refEngine{}, prog)
	if len(got) != len(want) {
		t.Fatalf("%s: dispatched %d events, oracle %d", name, len(got), len(want))
	}
	for i := range want {
		if got[i].id != want[i].id || got[i].at != want[i].at { // numerically: -0 is 0
			t.Fatalf("%s: dispatch[%d] = event %d at %v, oracle event %d at %v",
				name, i, got[i].id, got[i].at, want[i].id, want[i].at)
		}
	}
	if gotEnd != wantEnd {
		t.Fatalf("%s: Run returned %v, oracle %v", name, gotEnd, wantEnd)
	}
	if eng.Pending() != 0 || eng.Processed() != int64(len(want)) {
		t.Fatalf("%s: Pending %d, Processed %d after %d dispatches", name, eng.Pending(), eng.Processed(), len(want))
	}
	return eng
}

// randomStream schedules a deterministic pseudo-random stream of events
// with many duplicate times, a quarter of which schedule a follow-up.
func randomStream(seed int64, n int) stream {
	return func(s sched, log func(int)) {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < n; i++ {
			at := float64(rng.Intn(50)) / 10
			id := i
			if rng.Intn(4) == 0 {
				delay := float64(rng.Intn(20)) / 10
				s.Schedule(at, func() {
					log(id)
					s.After(delay, func() { log(-id - 1) })
				})
			} else {
				s.Schedule(at, func() { log(id) })
			}
		}
	}
}

func TestSchedulerDifferentialRandomStreams(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		for _, n := range []int{3, 50, 500, 3000} {
			checkStream(t, "random", randomStream(seed, n))
		}
	}
}

// TestSchedulerSameTimeFromHandler schedules at exactly Now() from inside
// handlers: from the middle of a run, from its last event (the run is
// empty but still open), and in a chain that keeps one run alive.
func TestSchedulerSameTimeFromHandler(t *testing.T) {
	eng := checkStream(t, "now", func(s sched, log func(int)) {
		s.Schedule(1, func() {
			log(0)
			s.Schedule(s.Now(), func() { log(10) })
			s.After(0, func() { log(11) })
		})
		s.Schedule(1, func() { log(1) })
		s.Schedule(1, func() { // last of the run when it fires
			log(2)
			left := 5
			var again func()
			again = func() {
				log(20 + left)
				if left--; left > 0 {
					s.After(0, again)
				}
			}
			s.After(0, again)
		})
		s.Schedule(2, func() { log(3) })
	})
	if eng.opened != 2 {
		t.Errorf("opened %d runs for two distinct times, want 2", eng.opened)
	}
}

// TestSchedulerResumeAtNow schedules at exactly Now() after Run has
// returned: the run for that time is drained and freed, and the cache
// slot that still names it must not be believed.
func TestSchedulerResumeAtNow(t *testing.T) {
	checkStream(t, "resume", func(s sched, log func(int)) {
		s.Schedule(1, func() { log(0) })
		s.Schedule(1, func() { log(1) })
		s.Run()
		s.Schedule(s.Now(), func() { log(2) })
		s.After(0, func() { log(3) })
		s.Schedule(2, func() { log(4) })
		s.Run()
		s.After(0, func() { log(5) })
	})
}

// collidingTimes returns n distinct positive times that all hash to the
// time-cache slot of the first.
func collidingTimes(n int) []float64 {
	var out []float64
	var slot uint64
	for k := 1; len(out) < n; k++ {
		at := float64(k) * 1e-3
		s := cacheSlot(math.Float64bits(at))
		if len(out) == 0 {
			slot = s
		}
		if s == slot {
			out = append(out, at)
		}
	}
	return out
}

// TestSchedulerCacheCollisions forces distinct times into one cache slot,
// round-robin, so every append finds its slot taken by another time and
// each time ends up spread over several runs.
func TestSchedulerCacheCollisions(t *testing.T) {
	times := collidingTimes(4)
	const rounds = 6
	eng := checkStream(t, "one slot", func(s sched, log func(int)) {
		id := 0
		for r := 0; r < rounds; r++ {
			for _, at := range times {
				myID := id
				id++
				s.Schedule(at, func() {
					log(myID)
					// Revisit this time and a later colliding one mid-run.
					if myID%5 == 0 {
						s.After(0, func() { log(1000 + myID) })
						s.Schedule(times[len(times)-1], func() { log(2000 + myID) })
					}
				})
			}
		}
	})
	if want := int64(rounds * len(times)); eng.opened < want {
		t.Errorf("opened %d runs, want at least %d: the times were meant to evict each other", eng.opened, want)
	}
}

// TestSchedulerCacheOverflow holds more distinct pending times than the
// cache has slots, twice over, so slots are shared whatever the hash.
func TestSchedulerCacheOverflow(t *testing.T) {
	const distinct = 3*timeCacheSize + 7
	eng := checkStream(t, "overflow", func(s sched, log func(int)) {
		id := 0
		for pass := 0; pass < 2; pass++ {
			for k := 0; k < distinct; k++ {
				myID := id
				id++
				s.Schedule(float64((k*7919)%distinct)*1e-6, func() { log(myID) })
			}
		}
	})
	if eng.opened <= distinct {
		t.Errorf("opened %d runs for %d times scheduled twice; expected evictions to split some", eng.opened, distinct)
	}
}

// TestSchedulerEvictedTimeRevisited pins the invariant the design rests
// on: a time whose slot was taken by another time opens a second run, the
// first is never appended to again, and the order still holds.
func TestSchedulerEvictedTimeRevisited(t *testing.T) {
	c := collidingTimes(2)
	a, b := c[1], c[0] // a later than b, so b's run drains while a's two wait
	eng := checkStream(t, "revisit", func(s sched, log func(int)) {
		s.Schedule(a, func() { log(0) })
		s.Schedule(a, func() { log(1) })
		s.Schedule(b, func() { log(2) }) // evicts a
		s.Schedule(a, func() { log(3) }) // second run for a, evicts b
		s.Schedule(a, func() { log(4) }) // joins the second run
		s.Schedule(b, func() { log(5) }) // second run for b
		s.Schedule(a, func() { log(6) }) // third run for a
	})
	if eng.opened != 5 {
		t.Errorf("opened %d runs, want 5", eng.opened)
	}
}

// TestSchedulerSignedZero: -0 and +0 are one time. Kept apart by their
// bits they would be two runs that both keep growing.
func TestSchedulerSignedZero(t *testing.T) {
	negZero := math.Copysign(0, -1)
	eng := checkStream(t, "zeros", func(s sched, log func(int)) {
		for i, at := range []float64{negZero, 0, negZero, 0, 1, negZero} {
			id := i
			s.Schedule(at, func() {
				log(id)
				if id == 0 {
					s.Schedule(negZero, func() { log(100) })
				}
			})
		}
	})
	if eng.opened != 2 {
		t.Errorf("opened %d runs for times {0, 1}, want 2", eng.opened)
	}
}

// TestSchedulerFarFuture: a dense cluster now plus stragglers orders of
// magnitude later, scheduled scrambled, +Inf last of all.
func TestSchedulerFarFuture(t *testing.T) {
	times := []float64{0, 1e-9, 2e-9, 3e-9, 1, 1e3, 1e6, 1e9, 1e12, math.Inf(1)}
	eng := checkStream(t, "far future", func(s sched, log func(int)) {
		for _, i := range []int{4, 0, 8, 2, 9, 6, 1, 7, 3, 5} {
			id := i
			s.Schedule(times[i], func() { log(id) })
		}
	})
	if !math.IsInf(eng.Now(), 1) {
		t.Errorf("Now() = %v after the last event, want +Inf", eng.Now())
	}
}

// TestSchedulerManySimultaneous queues 20 000 events on 977 times at
// once: long runs, a slab that grows mid-schedule, nothing lost or
// reordered.
func TestSchedulerManySimultaneous(t *testing.T) {
	checkStream(t, "simultaneous", func(s sched, log func(int)) {
		for i := 0; i < 20000; i++ {
			id := i
			s.Schedule(float64(i%977)/977, func() { log(id) })
		}
	})
}

// bucketOutOfOrder reports whether some bucket above 0 lists at least
// three runs of one time, not all in seq order: the state in which a
// redistribution must sort what it moves to bucket 0.
func bucketOutOfOrder(e *Engine) bool {
	for b := 1; b < len(e.bucket); b++ {
		count := map[float64]int{}
		last := map[float64]int64{}
		unordered := map[float64]bool{}
		for r := e.bucket[b]; r != 0; r = e.runs[r].qnext {
			rn := &e.runs[r]
			if count[rn.at] > 0 && rn.seq < last[rn.at] {
				unordered[rn.at] = true
			}
			count[rn.at]++
			last[rn.at] = rn.seq
		}
		for at, n := range count {
			if n >= 3 && unordered[at] {
				return true
			}
		}
	}
	return false
}

// TestSchedulerSameTimeRunsInOneBucket leaves several runs of one time in
// one bucket, listed against their seq order, after the queue has
// advanced: three colliding times evict each other from one cache slot,
// and handlers of the middle time reopen runs of the last while runs of
// the last are already queued. Bucket 0 must still dispatch them by seq.
func TestSchedulerSameTimeRunsInOneBucket(t *testing.T) {
	c := collidingTimes(3)
	seen := false
	eng := checkStream(t, "one bucket", func(s sched, log func(int)) {
		s.Schedule(c[0], func() {
			log(0)
			for k := 0; k < 7; k++ {
				id, at := 10+k, c[2-k%2] // c2, c1, c2, … : every schedule misses
				s.Schedule(at, func() {
					log(id)
					if at == c[1] {
						s.After(0, func() { log(100 + id) }) // a run at Now, appended to bucket 0
						s.Schedule(c[2], func() { log(200 + id) })
					}
				})
			}
			if e, ok := s.(*Engine); ok {
				seen = bucketOutOfOrder(e)
			}
		})
	})
	if !seen {
		t.Error("no bucket held three runs of one time out of seq order: the stream no longer tests the redistribution's sort")
	}
	if eng.opened < 10 {
		t.Errorf("opened %d runs, want at least 10: the times were meant to evict each other", eng.opened)
	}
}

// TestSchedulerPowerOfTwoBoundaries schedules times on both sides of
// powers of two and of the subnormal/normal boundary — where a key's
// highest bit differing from Now's jumps — scrambled, and from each
// handler the next representable time and the next power of two.
func TestSchedulerPowerOfTwoBoundaries(t *testing.T) {
	times := []float64{
		math.SmallestNonzeroFloat64, 2 * math.SmallestNonzeroFloat64,
		math.Nextafter(0x1p-1022, 0), 0x1p-1022, math.Nextafter(0x1p-1022, 1),
		math.Nextafter(0.5, 0), 0.5, math.Nextafter(0.5, 1),
		math.Nextafter(1, 0), 1, math.Nextafter(1, 2),
		math.Nextafter(2, 0), 2, 4, 0x1p52, 0x1p53,
		math.MaxFloat64, math.Inf(1),
	}
	checkStream(t, "powers of two", func(s sched, log func(int)) {
		id := 0
		var handler func(depth int) func()
		handler = func(depth int) func() {
			myID := id
			id++
			return func() {
				log(myID)
				now := s.Now()
				if depth == 2 || math.IsInf(now, 1) {
					return
				}
				_, exp := math.Frexp(now)
				s.Schedule(math.Nextafter(now, math.Inf(1)), handler(depth+1))
				s.Schedule(math.Ldexp(1, exp), handler(depth+1)) // the next power of two
				s.After(0, handler(depth+1))
			}
		}
		for _, i := range rand.New(rand.NewSource(3)).Perm(len(times)) {
			s.Schedule(times[i], handler(0))
		}
	})
}

// TestSchedulerSignedZeroBesideSubnormal: −0 and +0 beside the smallest
// non-zero time, whose key differs from 0's in the lowest bit alone. An
// unfolded −0 would differ from every other key in bit 63.
func TestSchedulerSignedZeroBesideSubnormal(t *testing.T) {
	negZero, tiny := math.Copysign(0, -1), math.SmallestNonzeroFloat64
	eng := checkStream(t, "zero and tiny", func(s sched, log func(int)) {
		for i, at := range []float64{tiny, negZero, 0, tiny, negZero} {
			id := i
			s.Schedule(at, func() {
				log(id)
				switch s.Now() {
				case 0:
					s.Schedule(negZero, func() { log(100 + id) })
					s.Schedule(tiny, func() { log(200 + id) })
				case tiny:
					s.After(0, func() { log(300 + id) })
					s.Schedule(2*tiny, func() { log(400 + id) })
				}
			})
		}
	})
	if eng.opened != 3 {
		t.Errorf("opened %d runs for times {0, tiny, 2·tiny}, want 3", eng.opened)
	}
}

// fuzzOp is one decoded scheduling step: after delay, log and run kids.
type fuzzOp struct {
	delay float64
	kids  []fuzzOp
}

// fuzzDelays is the palette a fuzz byte's low nibble picks from: mostly
// ties and near ties, two delays sharing a cache slot, a far jump, −0,
// and delays beside powers of two and the subnormal/normal boundary.
var fuzzDelays = func() []float64 {
	c := collidingTimes(2)
	return []float64{0, 0, 0.5, 0.5, 1, 1e-9, 0.25, c[0], c[1], 1e6,
		math.Copysign(0, -1), math.SmallestNonzeroFloat64, math.Nextafter(1, 0),
		math.Nextafter(0x1p-1022, 0), 0x1p-1022, 2}
}()

// decodeFuzz reads ops from data until depth-bounded input runs out. A
// byte is (kids<<4 | delay index); top-level byte 0xff is a mid-stream
// Run.
func decodeFuzz(data []byte, pos *int, depth int) (fuzzOp, bool) {
	if *pos >= len(data) {
		return fuzzOp{}, false
	}
	b := data[*pos]
	*pos++
	op := fuzzOp{delay: fuzzDelays[int(b&0x0f)%len(fuzzDelays)]}
	if depth < 3 {
		for k := 0; k < int(b>>4)%4; k++ {
			kid, ok := decodeFuzz(data, pos, depth+1)
			if !ok {
				break
			}
			op.kids = append(op.kids, kid)
		}
	}
	return op, true
}

// fuzzStream turns bytes into a program: schedule/after ops with nested
// follow-ups, and Run calls between them.
func fuzzStream(data []byte) stream {
	return func(s sched, log func(int)) {
		id := 0
		var handler func(op fuzzOp) func()
		handler = func(op fuzzOp) func() {
			myID := id
			id++
			return func() {
				log(myID)
				for _, kid := range op.kids {
					s.After(kid.delay, handler(kid))
				}
			}
		}
		for pos := 0; pos < len(data); {
			if data[pos] == 0xff {
				pos++
				s.Run()
				continue
			}
			op, _ := decodeFuzz(data, &pos, 0)
			at := s.Now() + op.delay
			if at == 0 {
				at = op.delay // 0 + −0 is +0; keep the delay's sign
			}
			s.Schedule(at, handler(op))
		}
	}
}

// FuzzEngineOrder feeds arbitrary schedule/after/run programs to the
// engine and the oracle.
func FuzzEngineOrder(f *testing.F) {
	f.Add([]byte{0x00, 0x10, 0x02, 0xff, 0x27, 0x08, 0x00})
	f.Add([]byte{0x37, 0x28, 0x17, 0x08, 0x07, 0x38, 0xff, 0x07, 0x08})
	f.Add([]byte{0x09, 0x35, 0x30, 0x30, 0x30, 0x00, 0xff, 0xff, 0x01})
	f.Add([]byte{0x04, 0x04, 0xff, 0x00, 0x10, 0x00, 0xff, 0x00})
	// Runs of one time evicting each other into one bucket.
	f.Add([]byte{0x08, 0x07, 0x08, 0x07, 0x08, 0x07, 0x08, 0x18, 0x00, 0x07})
	// Times beside powers of two and the subnormal boundary.
	f.Add([]byte{0x0c, 0x04, 0x02, 0x0f, 0x0d, 0x0e, 0x2c, 0x0b, 0x04, 0xff, 0x3c, 0x0c, 0x0f, 0x04})
	// −0 and +0 beside the smallest non-zero time.
	f.Add([]byte{0x0b, 0x0a, 0x00, 0x1a, 0x0b, 0x0a, 0xff, 0x0a, 0x1b, 0x0a})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 { // the oracle re-sorts after every nested schedule
			return
		}
		checkStream(t, "fuzz", fuzzStream(data))
	})
}

// TestEngineRejectsNaN: NaN is not at or after Now, so it is the past.
// +Inf is a legal time that orders last.
func TestEngineRejectsNaN(t *testing.T) {
	eng := &Engine{}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("want panic scheduling at NaN")
			}
		}()
		eng.Schedule(math.NaN(), func() {})
	}()
	if eng.Pending() != 0 {
		t.Fatalf("Pending() = %d after a rejected Schedule", eng.Pending())
	}
	var order []int
	eng.Schedule(math.Inf(1), func() { order = append(order, 2) })
	eng.Schedule(5, func() { order = append(order, 1) })
	eng.Schedule(math.Inf(1), func() { order = append(order, 3) })
	if end := eng.Run(); !math.IsInf(end, 1) {
		t.Errorf("Run returned %v, want +Inf", end)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v, want [1 2 3]", order)
	}
}

// TestZeroAllocSteadyState pins the pooling contract: once pools, route
// buffers, and queue storage are warm, a full packet-dense simulation
// run performs zero heap allocations inside the simulator, with unbounded
// links and with credit-based flow control (BufferPackets 4: the wait
// queues and credit returns). The network outlives every Reset, so this
// is also the re-registration path.
func TestZeroAllocSteadyState(t *testing.T) {
	for _, buffered := range []int{0, 4} {
		eng := &Engine{}
		net, err := NewNetwork(eng, Config{
			Topology:      topology.MustTorus(8, 8),
			LinkBandwidth: 1e8,
			LinkLatency:   1e-7,
			PacketSize:    256,
			BufferPackets: buffered,
		})
		if err != nil {
			t.Fatal(err)
		}
		run := func() {
			eng.Reset()
			for a := 0; a < 64; a++ {
				for d := 1; d <= 8; d++ {
					net.Send(a, (a+d*7)%64, 4096, nil)
				}
			}
			eng.Run()
		}
		// Warm twice: the first run grows pools and queue storage, and the
		// second settles route buffers onto the slots the free-list reuse
		// order assigns them in steady state.
		run()
		run()
		if avg := testing.AllocsPerRun(20, run); avg > 0.5 {
			t.Errorf("BufferPackets %d: steady-state simulation allocates %.1f times per run, want 0", buffered, avg)
		}
		if len(eng.nets) != 1 || eng.nets[0] != net {
			t.Errorf("BufferPackets %d: engine holds %d networks after reuse across Reset, want the one", buffered, len(eng.nets))
		}
	}
}

// TestEnginePadding pins the false-sharing guard: whatever fields an
// Engine grows, the per-event words of two engines adjacent in memory stay
// at least enginePad bytes apart.
func TestEnginePadding(t *testing.T) {
	var e Engine
	live := unsafe.Offsetof(e.cache) + unsafe.Sizeof(e.cache)
	if tail := unsafe.Sizeof(e) - live; tail < enginePad {
		t.Errorf("Engine ends %d bytes after its last field, want at least %d", tail, enginePad)
	}
	if s := unsafe.Sizeof(event{}); s > 24 {
		t.Errorf("event is %d bytes, want at most 24", s)
	}
}
