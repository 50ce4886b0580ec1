// Package stats provides the small statistical toolkit the experiment
// harness uses for seed sweeps: summary statistics and normal-theory
// confidence intervals, so random-placement baselines report a mean ±
// half-width instead of a single draw, and Kendall's rank correlation, so
// a table can say whether two orderings of its rows agree.
package stats

import (
	"cmp"
	"fmt"
	"math"
	"sort"
)

// Summary describes a sample.
type Summary struct {
	N             int
	Mean          float64
	StdDev        float64 // sample standard deviation (n−1)
	Min, Max      float64
	Median        float64
	CI95HalfWidth float64 // normal-approximation 95 % half width
}

// Summarize computes summary statistics; it panics on an empty sample to
// surface harness bugs immediately.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		panic("stats: empty sample")
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0]}
	sum := 0.0
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(s.N)
	if s.N > 1 {
		ss := 0.0
		for _, x := range xs {
			d := x - s.Mean
			ss += float64(d * d)
		}
		s.StdDev = math.Sqrt(ss / float64(s.N-1))
		s.CI95HalfWidth = 1.96 * s.StdDev / math.Sqrt(float64(s.N))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if s.N%2 == 1 {
		s.Median = sorted[s.N/2]
	} else {
		s.Median = (sorted[s.N/2-1] + sorted[s.N/2]) / 2
	}
	return s
}

// String formats the summary as "mean ± ci (n=N)".
func (s Summary) String() string {
	return fmt.Sprintf("%.4g ± %.2g (n=%d)", s.Mean, s.CI95HalfWidth, s.N)
}

// Sweep evaluates f at each seed and summarizes the results.
func Sweep(seeds int, f func(seed int64) float64) Summary {
	if seeds < 1 {
		panic("stats: need at least one seed")
	}
	xs := make([]float64, seeds)
	for i := range xs {
		xs[i] = f(int64(i) + 1)
	}
	return Summarize(xs)
}

// KendallTauB is Kendall's rank correlation of xs and ys, τ-b for ties:
// (concordant − discordant pairs) / √((n₀ − tx)(n₀ − ty)), with n₀ all
// pairs and tx, ty those tied in xs, in ys. It is NaN when either sample
// is constant or shorter than two, and panics when the lengths differ.
func KendallTauB(xs, ys []float64) float64 {
	if len(xs) != len(ys) {
		panic("stats: KendallTauB of samples of different lengths")
	}
	// dx·dy is +1 on a concordant pair, −1 on a discordant one, 0 on a tie;
	// 1 − dx² is 1 exactly on a tie in xs.
	score, tiedX, tiedY := 0, 0, 0
	for i := range xs {
		for j := i + 1; j < len(xs); j++ {
			dx, dy := cmp.Compare(xs[i], xs[j]), cmp.Compare(ys[i], ys[j])
			score += dx * dy
			tiedX += 1 - dx*dx
			tiedY += 1 - dy*dy
		}
	}
	pairs := len(xs) * (len(xs) - 1) / 2
	return float64(score) / math.Sqrt(float64(pairs-tiedX)*float64(pairs-tiedY))
}
