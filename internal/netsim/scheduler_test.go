package netsim

// Differential tests of the two schedulers: the binary heap and the
// calendar queue must dispatch identical (time, seq) orders on arbitrary
// event streams, including duplicate timestamps, nested scheduling, and
// pathological time distributions.

import (
	"math/rand"
	"testing"
	"unsafe"

	"repro/internal/topology"
)

// runStream schedules a deterministic pseudo-random stream of events —
// some of which schedule follow-ups — and returns the dispatch order.
func runStream(threshold int, seed int64, n int) []int {
	eng := &Engine{}
	eng.SetCalendarThreshold(threshold)
	rng := rand.New(rand.NewSource(seed))
	var order []int
	id := 0
	for i := 0; i < n; i++ {
		at := float64(rng.Intn(50)) / 10 // many duplicate times
		myID := id
		id++
		if rng.Intn(4) == 0 {
			eng.Schedule(at, func() {
				order = append(order, myID)
				childID := -myID - 1
				eng.After(float64(rng.Intn(20))/10, func() {
					order = append(order, childID)
				})
			})
		} else {
			eng.Schedule(at, func() { order = append(order, myID) })
		}
	}
	eng.Run()
	return order
}

func TestSchedulerDifferentialRandomStreams(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		for _, n := range []int{3, 50, 500, 3000} {
			heap := runStream(-1, seed, n)
			cal := runStream(1, seed, n)
			auto := runStream(0, seed, n)
			if len(heap) != len(cal) || len(heap) != len(auto) {
				t.Fatalf("seed %d n=%d: dispatched %d/%d/%d events", seed, n, len(heap), len(cal), len(auto))
			}
			for i := range heap {
				if heap[i] != cal[i] {
					t.Fatalf("seed %d n=%d: dispatch[%d] heap=%d calendar=%d", seed, n, i, heap[i], cal[i])
				}
				if heap[i] != auto[i] {
					t.Fatalf("seed %d n=%d: dispatch[%d] heap=%d auto=%d", seed, n, i, heap[i], auto[i])
				}
			}
		}
	}
}

// TestCalendarFarFutureJumps drives the year-jump slow path: a dense
// cluster now plus stragglers orders of magnitude later.
func TestCalendarFarFutureJumps(t *testing.T) {
	eng := &Engine{}
	eng.SetCalendarThreshold(1)
	var order []float64
	times := []float64{0, 1e-9, 2e-9, 3e-9, 1, 1e3, 1e6, 1e9, 1e12}
	// Schedule in a scrambled order.
	for _, i := range []int{4, 0, 8, 2, 6, 1, 7, 3, 5} {
		at := times[i]
		eng.Schedule(at, func() { order = append(order, at) })
	}
	eng.Run()
	if len(order) != len(times) {
		t.Fatalf("dispatched %d of %d", len(order), len(times))
	}
	for i := range times {
		if order[i] != times[i] {
			t.Fatalf("order[%d] = %v, want %v (full: %v)", i, order[i], times[i], order)
		}
	}
}

// TestCalendarRegrows pushes enough simultaneous load to trigger bucket
// regrowth mid-run and checks nothing is lost or reordered.
func TestCalendarRegrows(t *testing.T) {
	eng := &Engine{}
	eng.SetCalendarThreshold(1)
	const n = 20000
	fired := 0
	last := -1.0
	for i := 0; i < n; i++ {
		at := float64(i%977) / 977
		eng.Schedule(at, func() {
			if eng.Now() < last {
				t.Fatalf("time went backwards: %v after %v", eng.Now(), last)
			}
			last = eng.Now()
			fired++
		})
	}
	eng.Run()
	if fired != n {
		t.Fatalf("fired %d of %d", fired, n)
	}
}

// TestAutoSwitchEngages checks the automatic selection actually migrates
// to the calendar queue above the threshold and back once drained.
func TestAutoSwitchEngages(t *testing.T) {
	eng := &Engine{}
	eng.SetCalendarThreshold(64)
	for i := 0; i < 256; i++ {
		eng.Schedule(float64(i), func() {})
	}
	if !eng.inCal {
		t.Fatal("engine did not switch to the calendar queue above threshold")
	}
	if eng.Pending() != 256 {
		t.Fatalf("Pending() = %d across migration, want 256", eng.Pending())
	}
	eng.Run()
	if eng.Pending() != 0 {
		t.Fatalf("Pending() = %d after Run", eng.Pending())
	}
	// After a Reset the engine starts back on the heap.
	eng.Reset()
	if eng.inCal || eng.Now() != 0 || eng.Pending() != 0 {
		t.Error("Reset did not restore initial scheduler state")
	}
}

// TestZeroAllocSteadyState pins the pooling contract: once pools, route
// buffers, and queue storage are warm, a full packet-dense simulation
// run — dense enough to migrate through the calendar queue — performs
// zero heap allocations inside the simulator.
func TestZeroAllocSteadyState(t *testing.T) {
	eng := &Engine{}
	net, err := NewNetwork(eng, Config{
		Topology:      topology.MustTorus(8, 8),
		LinkBandwidth: 1e8,
		LinkLatency:   1e-7,
		PacketSize:    256,
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
	if !eng.inCal && eng.seq < defaultCalendarThreshold {
		t.Log("note: workload too sparse to engage the calendar queue")
	}
	if avg := testing.AllocsPerRun(20, run); avg > 0.5 {
		t.Errorf("steady-state simulation allocates %.1f times per run, want 0", avg)
	}
}

// TestEnginePadding pins the false-sharing guard: whatever fields an
// Engine grows, the per-event words of two engines adjacent in memory stay
// at least enginePad bytes apart.
func TestEnginePadding(t *testing.T) {
	var e Engine
	live := unsafe.Offsetof(e.calUp) + unsafe.Sizeof(e.calUp)
	if tail := unsafe.Sizeof(e) - live; tail < enginePad {
		t.Errorf("Engine ends %d bytes after its last field, want at least %d", tail, enginePad)
	}
}
