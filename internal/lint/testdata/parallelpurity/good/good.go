// Package fixture is the conforming parallelpurity counterpart: local
// accumulators, per-index slots, per-chunk seeded rand sources, and one
// justified suppression.
package fixture

import (
	"math/rand"

	"repro/fixture/internal/parallel"
)

// sumGood reduces through local accumulators and a pure merge.
func sumGood(xs []float64) float64 {
	return parallel.Reduce(len(xs), 64, func(lo, hi int) float64 {
		var s float64
		for i := lo; i < hi; i++ {
			s += xs[i]
		}
		return s
	}, func(acc, next float64) float64 { return acc + next })
}

// fillGood writes only the closure's own index slots.
func fillGood(out []float64) {
	parallel.For(len(out), 64, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = float64(i) * 0.5
		}
	})
}

// noiseGood seeds one source per chunk, so draws are position-determined.
func noiseGood(out []float64, seed int64) {
	parallel.For(len(out), 64, func(lo, hi int) {
		rng := rand.New(rand.NewSource(seed + int64(lo)))
		for i := lo; i < hi; i++ {
			out[i] = rng.Float64()
		}
	})
}

// resetGood writes one shared slot identically from every chunk — benign
// here, and documented as such.
func resetGood(counts []int) {
	parallel.For(len(counts), 64, func(lo, hi int) {
		//lint:ignore parallelpurity fixture: every chunk writes the same constant to slot 0
		counts[0] = 0
	})
}

// pickGood maps a pure predicate over captured read-only data.
func pickGood(xs []float64) []bool {
	return parallel.Map(len(xs), 64, func(i int) bool {
		return xs[i] > 0.75
	})
}
