package service

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestStressCoalescingAndCancellation hammers s.do with a small set of
// job variants from many goroutines, a share of which carry timeouts
// short enough to cancel mid-wait. Run under -race this exercises every
// join/leave/claim/finish interleaving; afterwards the server must be
// fully drained: empty flight table, zero admitted computations, and
// every successful body byte-identical to the reference. Two more
// variants panic, one while its flight's creator builds and one in the
// worker's compute: their requests must all end in a typed 500 (or a
// cancellation or rejection) without stranding a waiter or a slot.
func TestStressCoalescingAndCancellation(t *testing.T) {
	setFaultHook(t, func(stage string, spec *Job) {
		if (spec.Seed == faultSeed && stage == "build") || (spec.Seed == faultSeed+1 && stage == "compute") {
			panic("injected " + stage + " fault")
		}
	})
	srv := NewServer(Config{Workers: 4, QueueDepth: 8, CacheEntries: 4})
	defer srv.Close()

	// Every field explicit: directBody applies no defaults.
	specs := []Job{
		{Graph: GraphSpec{Pattern: "mesh2d:4,4", MsgBytes: 1e5, Seed: 1}, Topology: "torus:4,4", Strategy: "topolb", Seed: 1},
		{Graph: GraphSpec{Pattern: "mesh2d:4,4", MsgBytes: 1e5, Seed: 1}, Topology: "torus:4,4", Strategy: "topocentlb", Seed: 1},
		{Graph: GraphSpec{Pattern: "ring:16", MsgBytes: 1e5, Seed: 3}, Topology: "hypercube:4", Strategy: "random", Seed: 3},
		{Graph: GraphSpec{Pattern: "stencil9:4,4", MsgBytes: 1e5, Seed: 1}, Topology: "mesh:4,4", Strategy: "topolb1", Seed: 1, Metrics: true},
		{Graph: GraphSpec{Pattern: "mesh2d:8,8", MsgBytes: 1e5, Seed: 2}, Topology: "torus:8,8", Strategy: "topolb3", Seed: 2},
	}
	jobs := make([]*job, len(specs), len(specs)+2)
	want := make([][]byte, len(specs))
	for i, spec := range specs {
		jobs[i] = mustName(t, spec)
		want[i] = directBody(t, spec)
	}
	healthy := len(jobs)
	for _, seed := range []int64{faultSeed, faultSeed + 1} {
		spec := faultyJob()
		spec.Seed = seed
		jobs = append(jobs, mustName(t, spec))
	}

	const (
		goroutines = 24
		iterations = 40
	)
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iterations; i++ {
				k := (g + i) % len(jobs)
				j := jobs[k]
				ctx := context.Background()
				cancel := context.CancelFunc(func() {})
				if (g*iterations+i)%3 == 0 {
					// Deterministic per-(goroutine, iteration) short timeout:
					// some expire before the flight is claimed, some during
					// the computation, some never.
					d := time.Duration((g*7+i)%5) * 200 * time.Microsecond
					ctx, cancel = context.WithTimeout(ctx, d)
				}
				body, status, err := srv.do(ctx, j)
				cancel()
				switch status {
				case 200:
					if k >= healthy || !bytes.Equal(body, want[k]) {
						errs <- fmt.Sprintf("goroutine %d iter %d: body diverges from library", g, i)
						return
					}
				case 500:
					if k < healthy {
						errs <- fmt.Sprintf("goroutine %d iter %d: healthy job failed: %v", g, i, err)
						return
					}
				case 499:
					if err == nil {
						errs <- fmt.Sprintf("goroutine %d iter %d: 499 with nil error", g, i)
						return
					}
				case 429:
					// Admission bound hit; legal under this load.
				default:
					errs <- fmt.Sprintf("goroutine %d iter %d: unexpected status %d (%v)", g, i, status, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}

	awaitDrained(t, srv)

	st := srv.Snapshot()
	total := st.JobsComputed + st.ResultCache.Hits + st.CoalescedJoins + st.Cancelled + st.RejectedFull
	if total == 0 || st.InternalErrors == 0 {
		t.Fatalf("stress run recorded no activity (internal_errors=%d)", st.InternalErrors)
	}
	t.Logf("computed=%d cache_hits=%d coalesced=%d cancelled=%d rejected=%d internal_errors=%d",
		st.JobsComputed, st.ResultCache.Hits, st.CoalescedJoins, st.Cancelled, st.RejectedFull, st.InternalErrors)
}

// TestStressCloseDuringLoad races Close against in-flight requests: every
// request must resolve (body, cancellation, rejection, or 503 shutdown)
// and Close must return.
func TestStressCloseDuringLoad(t *testing.T) {
	srv := NewServer(Config{Workers: 2, QueueDepth: 4})
	j := mustName(t, Job{Graph: GraphSpec{Pattern: "mesh2d:8,8"}, Topology: "torus:8,8", Seed: 1})

	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := 0; i < 20; i++ {
				spec := Job{Graph: GraphSpec{Pattern: "mesh2d:8,8"}, Topology: "torus:8,8", Seed: int64(g*100 + i + 1)}
				jj, err := name(spec, 0)
				if err != nil {
					t.Error(err)
					return
				}
				_, status, _ := srv.do(context.Background(), jj)
				if status != 200 && status != 429 && status != 503 {
					t.Errorf("status %d during shutdown race", status)
					return
				}
			}
		}(g)
	}
	close(start)
	// Let some work land, then close under load.
	_, _, _ = srv.do(context.Background(), j)
	srv.Close()
	wg.Wait()
}

// awaitDrained waits until the server holds no admitted computation, no
// running job and no flight. Workers publish a result before they release
// its slot, so the state is polled briefly.
func awaitDrained(t *testing.T, srv *Server) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := srv.Snapshot()
		srv.table.mu.Lock()
		inFlight := len(srv.table.flights)
		srv.table.mu.Unlock()
		if st.QueueDepth == 0 && st.JobsRunning == 0 && inFlight == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("not drained: queue_depth=%d jobs_running=%d flights=%d",
				st.QueueDepth, st.JobsRunning, inFlight)
		}
		time.Sleep(time.Millisecond)
	}
}

// awaitGoroutines waits up to five seconds for the goroutine count to
// fall back to before, the count taken before the server started: after
// Close, nothing the server or its handlers started may still run.
func awaitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before the server started", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}
