package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile
// for it to be a measurement rather than a readout of the few slowest
// operations (the choosing-metrics guide's rule).
const minBeyond = 10

// percentile is the nearest-rank percentile of an ascending sample.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// tailPercentile returns the highest percentile not above want that
// still has minBeyond of n samples beyond it, and never less than the
// median: with 1000 samples p90 stays p90, with 50 it becomes p80, and a
// handful of passes degrade to the median instead of reporting their
// maximum as a tail.
func tailPercentile(n int, want float64) float64 {
	if n == 0 {
		return 0.5
	}
	p := want
	if most := float64(n-minBeyond) / float64(n); p > most {
		p = most
	}
	if p < 0.5 {
		p = 0.5
	}
	return p
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 0.5)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// geomean is the geometric mean of positive values (0 for none).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// latencySummary is what one phase's per-op latencies reduce to.
type latencySummary struct {
	N       int
	P50     float64
	P90     float64 // at percentile P90At (p90, or lower when N is small)
	P90At   float64
	Tail    float64 // at percentile TailAt: the highest with minBeyond beyond
	TailAt  float64
	sortedM []float64
}

// summarize reduces millisecond latencies (consumed: sorted in place).
func summarize(ms []float64) latencySummary {
	sort.Float64s(ms)
	s := latencySummary{N: len(ms), sortedM: ms}
	if len(ms) == 0 {
		return s
	}
	s.P50 = percentile(ms, 0.5)
	s.P90At = tailPercentile(len(ms), 0.90)
	s.P90 = percentile(ms, s.P90At)
	s.TailAt = tailPercentile(len(ms), 0.999)
	s.Tail = percentile(ms, s.TailAt)
	return s
}

// zipfCounts splits total draws over n ranks in proportion to 1/rank^s,
// by largest remainder, so every block of the request sequence has the
// same composition whatever the seed; the seed only orders it.
func zipfCounts(n, total int, s float64) []int {
	w := make([]float64, n)
	sum := 0.0
	for r := range w {
		w[r] = 1 / math.Pow(float64(r+1), s)
		sum += w[r]
	}
	counts := make([]int, n)
	type rem struct {
		rank int
		frac float64
	}
	rems := make([]rem, n)
	used := 0
	for r := range w {
		exact := w[r] / sum * float64(total)
		counts[r] = int(exact)
		used += counts[r]
		rems[r] = rem{rank: r, frac: exact - float64(counts[r])}
	}
	sort.SliceStable(rems, func(a, b int) bool { return rems[a].frac > rems[b].frac })
	for i := 0; used < total; i, used = i+1, used+1 {
		counts[rems[i%n].rank]++
	}
	return counts
}
