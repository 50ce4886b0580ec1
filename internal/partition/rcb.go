package partition

import (
	"fmt"
	"runtime"
	"slices"

	"repro/internal/parallel"
	"repro/internal/taskgraph"
)

// RCB is recursive coordinate bisection, the classic geometric partitioner
// for spatially decomposed applications (molecular dynamics, particle and
// mesh codes): the point set is recursively split at the weighted median
// along its longest-extent axis, producing compact axis-aligned blocks.
// It ignores the communication graph entirely — locality comes from
// geometry — which makes it extremely fast and, on spatial workloads,
// surprisingly competitive with graph partitioners.
type RCB struct {
	// Coords[v] is task v's position; all tasks must share one dimension
	// count (1–8).
	Coords [][]float64
}

// Name implements Partitioner.
func (RCB) Name() string { return "rcb" }

// Partition implements Partitioner: k parts of equal weight share.
func (r RCB) Partition(g *taskgraph.Graph, k int) (*Result, error) {
	if err := checkArgs(g, k); err != nil {
		return nil, err
	}
	n := g.NumVertices()
	if n == 0 {
		return nil, fmt.Errorf("partition: empty graph")
	}
	if err := CheckCoords(r.Coords, n); err != nil {
		return nil, err
	}
	shares := make([]int, k)
	for i := range shares {
		shares[i] = 1
	}
	res := &Result{Assign: coordBisect(r.Coords, g.VertexWeights(), shares), K: k}
	repairEmptyGroups(g, res)
	return res, nil
}

// CapacityRCB splits the points coords into len(targets) groups where
// group i receives exactly targets[i] points — the coordinate form of
// CapacityPartition, which the hierarchical mapper uses to fill each
// child's capacity. It runs RCB's bisection with every point weighing
// one, so each cut falls exactly after the left targets' summed count.
func CapacityRCB(coords [][]float64, targets []int) (*Result, error) {
	n := len(coords)
	if err := checkTargets(targets, n); err != nil {
		return nil, err
	}
	if err := CheckCoords(coords, n); err != nil {
		return nil, err
	}
	return &Result{Assign: coordBisect(coords, nil, targets), K: len(targets)}, nil
}

// CheckCoords reports whether coords give each of n tasks a position RCB
// can read: one row per task, every row with the same 1–8 axes. Every
// error is found before a row is dereferenced, so malformed input never
// panics.
func CheckCoords(coords [][]float64, n int) error {
	if len(coords) != n {
		return fmt.Errorf("partition: rcb has %d coordinates for %d tasks", len(coords), n)
	}
	if n == 0 {
		return fmt.Errorf("partition: rcb has no coordinates")
	}
	dims := len(coords[0])
	if dims < 1 || dims > 8 {
		return fmt.Errorf("partition: rcb supports 1-8 coordinate dimensions, got %d", dims)
	}
	for v, c := range coords {
		if len(c) != dims {
			return fmt.Errorf("partition: task %d has %d coordinates, want %d", v, len(c), dims)
		}
	}
	return nil
}

// coordBisect assigns every point of coords to one of len(shares) parts by
// presorted-lists recursive coordinate bisection and returns the
// assignment. weight[v] is point v's load; nil weighs every point one.
//
// One (coord, id) sort per axis up front, then stable O(block) splits at
// every bisection level — O(d·n log n + d·n log k) total instead of
// re-sorting each block (O(n log n log k)). A stable split of a sorted
// list leaves both halves sorted, and each block's per-axis list
// restricted to the block is exactly what sorting the block would
// produce, so the cuts (and the resulting partition) are identical to
// sort-per-block RCB.
func coordBisect(coords [][]float64, weight []float64, shares []int) []int {
	n, dims := len(coords), len(coords[0])
	b := &bisection{
		coords:  coords,
		weight:  weight,
		orders:  make([][]int32, dims),
		scratch: make([]int32, n),
		left:    make([]bool, n),
		assign:  make([]int, n),
	}
	ids := make([]int32, dims*n)
	key := make([]axisKey, n)
	for d := range b.orders {
		for v := range key {
			key[v] = axisKey{c: coords[v][d], id: int32(v)}
		}
		slices.SortFunc(key, func(a, b axisKey) int {
			// Coordinate first, id as the deterministic tie-break (also
			// the NaN fallback).
			if a.c < b.c {
				return -1
			}
			if b.c < a.c {
				return 1
			}
			return int(a.id) - int(b.id)
		})
		od := ids[d*n : (d+1)*n]
		for i := range key {
			od[i] = key[i].id
		}
		b.orders[d] = od
	}
	b.split(0, n, shares, 0)
	return b.assign
}

// axisKey is one task's sort key along one axis.
type axisKey struct {
	c  float64
	id int32
}

// rcbForkMin is the smallest block whose two halves are split side by
// side.
const rcbForkMin = 1 << 14

// bisection is the state of one coordBisect call. Every block of the
// recursion occupies the same position range of each axis list, so a
// block is its range [lo, hi) and the lists are split in place. Sibling
// blocks own disjoint position ranges and disjoint points — of the lists,
// of scratch (indexed by position), of left and of assign — so a block of
// at least rcbForkMin points splits its two halves on two workers, each
// writing the bytes the serial recursion would.
type bisection struct {
	coords  [][]float64
	weight  []float64 // nil: every point weighs one
	orders  [][]int32 // per axis, point ids in (coordinate, id) order within each block's range
	scratch []int32   // by position: a block's split stages its list here
	left    []bool    // false for every point between splits
	assign  []int
}

// split assigns parts [offset, offset+len(shares)) to the block at
// positions [lo, hi). The first ⌈k/2⌉ shares go left: the block is cut
// along its longest-extent axis at the weighted point closest to the
// left shares' fraction of the block's load, keeping at least one point
// per part on each side.
func (b *bisection) split(lo, hi int, shares []int, offset int) {
	k := len(shares)
	if k == 1 {
		for _, v := range b.orders[0][lo:hi] {
			b.assign[v] = offset
		}
		return
	}
	k1 := (k + 1) / 2
	k2 := k - k1
	// Longest-extent axis of this block: each list is sorted, so the
	// extent is last minus first.
	axis, bestExtent := 0, -1.0
	for d, od := range b.orders {
		if ext := b.coords[od[hi-1]][d] - b.coords[od[lo]][d]; ext > bestExtent {
			axis, bestExtent = d, ext
		}
	}
	l := b.orders[axis][lo:hi]
	total := float64(len(l))
	if b.weight != nil {
		total = 0
		for _, v := range l {
			total += b.weight[v]
		}
	}
	leftShare, allShares := 0, 0
	for i, s := range shares {
		allShares += s
		if i < k1 {
			leftShare += s
		}
	}
	// Unit weights make target the left shares' exact count, which the
	// loop below reaches exactly: every share is at least one point.
	target := total * float64(leftShare) / float64(allShares)
	cut, acc := 0, 0.0
	for cut < len(l)-k2 && (acc < target || cut < k1) {
		if b.weight != nil {
			acc += b.weight[l[cut]]
		} else {
			acc++
		}
		cut++
	}
	for _, v := range l[:cut] {
		b.left[v] = true
	}
	// Stable split of every axis list around the cut set, via scratch.
	scratch := b.scratch[lo:hi]
	for _, od := range b.orders {
		od = od[lo:hi]
		li, ri := 0, cut
		for _, v := range od {
			if b.left[v] {
				scratch[li] = v
				li++
			} else {
				scratch[ri] = v
				ri++
			}
		}
		copy(od, scratch)
	}
	for _, v := range l[:cut] {
		b.left[v] = false
	}
	if hi-lo < rcbForkMin || runtime.GOMAXPROCS(0) < 2 {
		b.split(lo, lo+cut, shares[:k1], offset)
		b.split(lo+cut, hi, shares[k1:], offset+k1)
		return
	}
	parallel.For(2, 1, func(half, _ int) {
		if half == 0 {
			b.split(lo, lo+cut, shares[:k1], offset)
		} else {
			b.split(lo+cut, hi, shares[k1:], offset+k1)
		}
	})
}
