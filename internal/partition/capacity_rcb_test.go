package partition

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// refGeoPartition is the exact-count coordinate bisection the
// hierarchical mapper ran before it called CapacityRCB (geoPartition at
// 3996d8b), kept as the reference CapacityRCB is checked against. It
// splits the points 0..len(coords)-1 into len(targets) groups of exactly
// targets[i] points: the target list halves with the shorter half left,
// the region's points sort along the widest axis of their bounding box
// (ties broken by point index), and the leading points fill the left
// targets' summed count. Groups come back in targets order with
// ascending members.
func refGeoPartition(coords [][]float64, targets []int) [][]int {
	local := make([]int, len(coords))
	for i := range local {
		local[i] = i
	}
	groups := make([][]int, 0, len(targets))
	refGeoSplit(coords, local, targets, &groups)
	for _, g := range groups {
		sort.Ints(g)
	}
	return groups
}

// refGeoSplit recursively bisects local to match targets, appending one
// group per target to out in order.
func refGeoSplit(coords [][]float64, local []int, targets []int, out *[][]int) {
	if len(targets) == 1 {
		*out = append(*out, local)
		return
	}
	mid := len(targets) / 2
	sumLeft := 0
	for _, t := range targets[:mid] {
		sumLeft += t
	}
	axis := refWidestAxis(coords, local)
	sort.SliceStable(local, func(a, b int) bool {
		ca, cb := refCoord(coords, local[a], axis), refCoord(coords, local[b], axis)
		if ca < cb {
			return true
		}
		if cb < ca {
			return false
		}
		return local[a] < local[b]
	})
	refGeoSplit(coords, local[:sumLeft], targets[:mid], out)
	refGeoSplit(coords, local[sumLeft:], targets[mid:], out)
}

// refCoord reads one axis of a point's position; absent axes read 0.
func refCoord(coords [][]float64, v, axis int) float64 {
	if c := coords[v]; axis < len(c) {
		return c[axis]
	}
	return 0
}

// refWidestAxis picks the axis with the largest coordinate extent over
// the region (lowest axis wins ties).
func refWidestAxis(coords [][]float64, local []int) int {
	dims := 0
	for _, v := range local {
		if l := len(coords[v]); l > dims {
			dims = l
		}
	}
	best, bestExt := 0, -1.0
	for ax := 0; ax < dims; ax++ {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, v := range local {
			c := refCoord(coords, v, ax)
			if c < lo {
				lo = c
			}
			if c > hi {
				hi = c
			}
		}
		if ext := hi - lo; ext > bestExt {
			best, bestExt = ax, ext
		}
	}
	return best
}

// capacityRCBCase draws a point set and a target list from seed: n
// points with dims axes on a lattice of side+1 values per axis (a small
// side makes many coordinates tie), split into k groups of random exact
// sizes.
func capacityRCBCase(seed int64, n, dims, k, side int) ([][]float64, []int) {
	rng := rand.New(rand.NewSource(seed))
	coords := make([][]float64, n)
	for v := range coords {
		coords[v] = make([]float64, dims)
		for d := range coords[v] {
			coords[v][d] = float64(rng.Intn(side + 1))
		}
	}
	cuts := rng.Perm(n - 1)[:k-1]
	for i := range cuts {
		cuts[i]++
	}
	slices.Sort(cuts)
	targets := make([]int, k)
	prev := 0
	for i, c := range append(cuts, n) {
		targets[i] = c - prev
		prev = c
	}
	return coords, targets
}

// checkCapacityRCB fails t unless CapacityRCB fills every target exactly
// and, when len(targets) is a power of two, matches refGeoPartition group
// for group.
func checkCapacityRCB(t *testing.T, coords [][]float64, targets []int) {
	t.Helper()
	r, err := CapacityRCB(coords, targets)
	if err != nil {
		t.Fatalf("CapacityRCB(%d points, targets %v): %v", len(coords), targets, err)
	}
	k := len(targets)
	if r.K != k || len(r.Assign) != len(coords) {
		t.Fatalf("result has K=%d and %d assignments, want %d and %d", r.K, len(r.Assign), k, len(coords))
	}
	groups := make([][]int, k)
	for v, q := range r.Assign {
		if q < 0 || q >= k {
			t.Fatalf("point %d assigned to group %d of %d", v, q, k)
		}
		groups[q] = append(groups[q], v)
	}
	for i, g := range groups {
		if len(g) != targets[i] {
			t.Fatalf("group %d holds %d points, target %d (targets %v)", i, len(g), targets[i], targets)
		}
	}
	if k&(k-1) != 0 {
		return
	}
	want := refGeoPartition(coords, targets)
	for i := range want {
		if !slices.Equal(groups[i], want[i]) {
			t.Fatalf("targets %v: group %d is %v, reference %v", targets, i, groups[i], want[i])
		}
	}
}

// TestCapacityRCBMatchesReference runs the fuzz target's checks over a
// fixed grid: 1–8 axes, tie-heavy and tie-free lattices, and part
// counts 1–9, so every power of two up to 8 meets the reference.
func TestCapacityRCBMatchesReference(t *testing.T) {
	seed := int64(0)
	for dims := 1; dims <= 8; dims++ {
		for _, side := range []int{1, 3, 1000} {
			for k := 1; k <= 9; k++ {
				for _, n := range []int{k, k + 1, 37, 200} {
					seed++
					coords, targets := capacityRCBCase(seed, n, dims, k, side)
					checkCapacityRCB(t, coords, targets)
				}
			}
		}
	}
}

// FuzzCapacityRCB checks CapacityRCB on any point set and target list:
// every target is filled exactly and every point lands in one group,
// and with a power-of-two part count the groups equal the reference
// bisection's group for group.
func FuzzCapacityRCB(f *testing.F) {
	f.Add(int64(1), uint16(64), uint8(2), uint8(4), uint8(3))
	f.Add(int64(2), uint16(500), uint8(3), uint8(8), uint8(200))
	f.Add(int64(3), uint16(17), uint8(1), uint8(5), uint8(0))
	f.Add(int64(4), uint16(96), uint8(8), uint8(6), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, dims, k, side uint8) {
		nn := 1 + int(n)%2048
		kk := 1 + int(k)%32
		if kk > nn {
			kk = nn
		}
		coords, targets := capacityRCBCase(seed, nn, 1+int(dims)%8, kk, int(side))
		checkCapacityRCB(t, coords, targets)
	})
}

// TestCapacityRCBRefuses: malformed targets and coordinates are errors,
// never panics.
func TestCapacityRCBRefuses(t *testing.T) {
	grid := gridCoords(4, 4)
	cases := []struct {
		name    string
		coords  [][]float64
		targets []int
	}{
		{"no targets", grid, nil},
		{"empty target", grid, []int{16, 0}},
		{"targets short of the points", grid, []int{8, 7}},
		{"targets past the points", grid, []int{8, 9}},
		{"no points", nil, []int{1}},
		{"ragged row", append(gridCoords(4, 4)[:15], []float64{1, 2, 3}), []int{8, 8}},
		{"zero axes", append([][]float64{{}}, grid[1:]...), []int{8, 8}},
		{"nine axes", wideCoords(16, 9), []int{8, 8}},
	}
	for _, tc := range cases {
		if _, err := CapacityRCB(tc.coords, tc.targets); err == nil {
			t.Errorf("%s: want error, got nil", tc.name)
		}
	}
}
