// Package fixture exercises the parallelpurity analyzer with every
// impurity it detects: captured-variable writes, fixed-slot slice
// writes, captured and global rand sources, the wall clock, and
// captured struct-field writes.
package fixture

import (
	"math/rand"
	"time"

	"repro/fixture/internal/parallel"
)

// sumBad accumulates into a captured variable across chunks.
func sumBad(xs []float64) float64 {
	var sum float64
	parallel.For(len(xs), 64, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			sum += xs[i]
		}
	})
	return sum
}

// countBad increments a captured counter.
func countBad(xs []float64) int {
	n := 0
	_ = parallel.Map(len(xs), 64, func(i int) bool {
		n++
		return xs[i] > 1
	})
	return n
}

// slotBad writes a fixed slot from every chunk.
func slotBad(xs, out []float64) {
	parallel.For(len(xs), 64, func(lo, hi int) {
		out[0] = xs[lo]
	})
}

// jitterBad draws from a rand source shared across chunks.
func jitterBad(out []float64, rng *rand.Rand) {
	parallel.For(len(out), 64, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = rng.Float64()
		}
	})
}

// globalBad draws from the process-global source.
func globalBad(out []float64) {
	parallel.For(len(out), 64, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = rand.Float64()
		}
	})
}

// stampBad reads the wall clock per element.
func stampBad(n int) []int64 {
	return parallel.Map(n, 64, func(i int) int64 {
		return time.Now().UnixNano()
	})
}

type tally struct{ total float64 }

// fieldBad writes a field of a captured struct.
func fieldBad(xs []float64, t *tally) {
	parallel.For(len(xs), 64, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			t.total += xs[i]
		}
	})
}
