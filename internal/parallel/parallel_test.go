package parallel

import (
	"math/rand"
	"runtime"
	"testing"
)

// withGOMAXPROCS runs f under each of the given GOMAXPROCS values,
// restoring the original setting afterwards.
func withGOMAXPROCS(t *testing.T, values []int, f func(procs int)) {
	t.Helper()
	orig := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(orig)
	for _, p := range values {
		runtime.GOMAXPROCS(p)
		f(p)
	}
}

func TestForCoversEveryIndexOnce(t *testing.T) {
	withGOMAXPROCS(t, []int{1, 2, 8}, func(procs int) {
		for _, n := range []int{0, 1, 7, 64, 1000} {
			for _, grain := range []int{1, 3, 64, 5000} {
				hits := make([]int, n)
				For(n, grain, func(lo, hi int) {
					for i := lo; i < hi; i++ {
						hits[i]++
					}
				})
				for i, h := range hits {
					if h != 1 {
						t.Fatalf("procs=%d n=%d grain=%d: index %d visited %d times", procs, n, grain, i, h)
					}
				}
			}
		}
	})
}

func TestForRespectsGrainBoundaries(t *testing.T) {
	withGOMAXPROCS(t, []int{1, 4}, func(procs int) {
		For(100, 32, func(lo, hi int) {
			if lo%32 != 0 {
				t.Errorf("procs=%d: chunk start %d not grain-aligned", procs, lo)
			}
			if hi != lo+32 && hi != 100 {
				t.Errorf("procs=%d: chunk [%d,%d) has unexpected size", procs, lo, hi)
			}
		})
	})
}

// TestReduceSumBitIdenticalAcrossProcs: float sums must associate the same
// way for every worker count because chunk boundaries are fixed.
func TestReduceSumBitIdenticalAcrossProcs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	vals := make([]float64, 1237)
	for i := range vals {
		vals[i] = rng.Float64()*1e6 - 5e5
	}
	sum := func() float64 {
		return Reduce(len(vals), 64, func(lo, hi int) float64 {
			s := 0.0
			for i := lo; i < hi; i++ {
				s += vals[i]
			}
			return s
		}, func(a, b float64) float64 { return a + b })
	}
	var ref float64
	withGOMAXPROCS(t, []int{1, 2, 3, 8}, func(procs int) {
		s := sum()
		if procs == 1 {
			ref = s
			return
		}
		if s != ref {
			t.Errorf("GOMAXPROCS=%d: sum %v != GOMAXPROCS=1 sum %v", procs, s, ref)
		}
	})
}

func TestReduceEmptyReturnsZero(t *testing.T) {
	got := Reduce(0, 8, func(lo, hi int) int { return 1 }, func(a, b int) int { return a + b })
	if got != 0 {
		t.Errorf("Reduce over empty range = %d, want 0", got)
	}
}

// TestMapOrderedResults: Map must return fn(i) at index i for any worker
// count, including empty and sub-grain inputs.
func TestMapOrderedResults(t *testing.T) {
	withGOMAXPROCS(t, []int{1, 2, 8}, func(procs int) {
		for _, n := range []int{0, 1, 5, 64, 1003} {
			out := Map(n, 16, func(i int) int { return i*i + 1 })
			if len(out) != n {
				t.Fatalf("procs=%d n=%d: len = %d", procs, n, len(out))
			}
			for i, v := range out {
				if v != i*i+1 {
					t.Fatalf("procs=%d n=%d: out[%d] = %d, want %d", procs, n, i, v, i*i+1)
				}
			}
		}
	})
}

// allocData is what the allocation guard's callbacks read; package-level,
// so the callbacks capture nothing and every allocation counted is the
// helper's own.
var (
	allocData  = make([]float64, 1<<16)
	allocSinkF float64
	allocSinkS []float64
)

// mallocsPerRun is testing.AllocsPerRun without its GOMAXPROCS(1): the
// forked path only exists above one worker, so it has to be measured
// there. Other goroutines are idle during a test, so the count is the
// helper's; it is averaged over the runs and truncated like AllocsPerRun.
func mallocsPerRun(runs int, f func()) int {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return int(after.Mallocs-before.Mallocs) / runs
}

// TestKernelAllocs is the dynamic guard behind the package's three
// //lint:hotpath roots. Inline (GOMAXPROCS 1, or a single chunk at any
// width) For and Reduce allocate nothing; Map allocates the loop closure
// that would be handed to workers and its result. Forked (GOMAXPROCS 2)
// each allocates a small constant — the shared counter, the wait group,
// one closure per worker, Reduce's slice of partials — that is the same
// for 16 chunks and for 256: nothing per chunk, nothing per index.
func TestKernelAllocs(t *testing.T) {
	const grain = 256
	kernels := []struct {
		name           string
		inline, forked int // allocation ceilings per call; forked is the measured count plus one
		run            func(n int)
	}{
		{"For", 0, 5, func(n int) {
			For(n, grain, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					allocData[i]++
				}
			})
		}},
		{"Reduce", 0, 7, func(n int) {
			allocSinkF = Reduce(n, grain, func(lo, hi int) float64 {
				s := 0.0
				for i := lo; i < hi; i++ {
					s += allocData[i]
				}
				return s
			}, func(a, b float64) float64 { return a + b })
		}},
		{"Map", 2, 7, func(n int) {
			allocSinkS = Map(n, grain, func(i int) float64 { return allocData[i] })
		}},
	}
	withGOMAXPROCS(t, []int{1, 2}, func(procs int) {
		for _, k := range kernels {
			for _, n := range []int{grain, 16 * grain, 256 * grain} {
				want := k.inline
				if procs > 1 && n > grain {
					want = k.forked
				}
				if got := mallocsPerRun(50, func() { k.run(n) }); got > want {
					t.Errorf("GOMAXPROCS %d: %s over %d indices allocates %d times a call; want <= %d", procs, k.name, n, got, want)
				}
			}
		}
	})
}
