package topology

import (
	"math/rand"

	"repro/internal/parallel"
)

// Diameter returns the largest pairwise distance of t, computed from the
// Distance method (O(n²) distance evaluations). Topologies with closed
// forms also expose their own O(1) Diameter methods.
func Diameter(t Topology) int {
	n := t.Nodes()
	diam := 0
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if d := t.Distance(a, b); d > diam {
				diam = d
			}
		}
	}
	return diam
}

// MeanDistance returns the exact mean distance between two independent
// uniformly random nodes of t, including the a == b pairs (distance 0),
// matching the expectation the paper quotes for random placement. It is
// O(n²); use SampleMeanDistance for very large networks.
func MeanDistance(t Topology) float64 {
	n := t.Nodes()
	sum := 0.0
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			sum += float64(t.Distance(a, b))
		}
	}
	// Ordered pairs: 2·sum off-diagonal plus n zero diagonal entries.
	return 2 * sum / float64(n*n)
}

// SampleMeanDistance estimates MeanDistance from `samples` random ordered
// node pairs drawn with the given seed.
func SampleMeanDistance(t Topology, samples int, seed int64) float64 {
	if samples <= 0 {
		return 0
	}
	rng := rand.New(rand.NewSource(seed))
	n := t.Nodes()
	sum := 0.0
	for i := 0; i < samples; i++ {
		sum += float64(t.Distance(rng.Intn(n), rng.Intn(n)))
	}
	return sum / float64(samples)
}

// TotalDistances fills out[p] with Σ_q Distance(p, q) over all nodes q for
// every node p. TopoLB's second-order estimation function divides this by
// the node count to approximate the distance to an unplaced task.
//
// Rows are summed independently in ascending q order and fanned out with
// parallel.For, reading t's oracle (NewDists). Distances are integers, so
// every partial sum is exact in float64 and the result is bit-identical
// for any GOMAXPROCS and any source.
func TotalDistances(t Topology, out []float64) {
	n := t.Nodes()
	d := NewDists(t)
	parallel.For(n, 8, func(lo, hi int) {
		d := d // the chunk's own copy: a method call on the captured one would move it to the heap
		for p := lo; p < hi; p++ {
			sum := 0.0
			for q := 0; q < n; q++ {
				sum += float64(d.Dist(p, q))
			}
			out[p] = sum
		}
	})
}
