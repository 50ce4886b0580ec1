package topology

import (
	"math/bits"
	"sort"
	"testing"

	"repro/internal/sfc"
)

// TestCurveOrderPermutation checks CurveOrder returns a permutation on
// every topology kind.
func TestCurveOrderPermutation(t *testing.T) {
	topos := []Topology{
		MustTorus(8, 8),
		MustTorus(4, 6), // non-power-of-two extent
		MustTorus(4, 4, 4),
		MustMesh(16), // 1D
		MustMesh(3, 5, 7),
		mustHypercube(t, 4),
		mustFatTree(t, 2, 3),
	}
	for _, to := range topos {
		order := CurveOrder(to)
		if len(order) != to.Nodes() {
			t.Errorf("%s: order has %d entries for %d nodes", to.Name(), len(order), to.Nodes())
			continue
		}
		seen := make([]bool, to.Nodes())
		for _, q := range order {
			if q < 0 || int(q) >= to.Nodes() || seen[q] {
				t.Errorf("%s: order is not a permutation (rank %d)", to.Name(), q)
				break
			}
			seen[q] = true
		}
	}
}

// TestCurveOrderLocality checks the walk is a genuine curve on
// power-of-two grids: consecutive ranks are machine neighbors
// (distance 1), the Hilbert adjacency property lifted to the machine.
func TestCurveOrderLocality(t *testing.T) {
	for _, to := range []Topology{MustMesh(8, 8), MustMesh(4, 4, 4)} {
		order := CurveOrder(to)
		for i := 1; i < len(order); i++ {
			if d := to.Distance(int(order[i-1]), int(order[i])); d != 1 {
				t.Fatalf("%s: curve steps %d hops between order[%d]=%d and order[%d]=%d",
					to.Name(), d, i-1, order[i-1], i, order[i])
			}
		}
	}
}

// TestCurveOrderNonCoordinated pins the rank-order fallback.
func TestCurveOrderNonCoordinated(t *testing.T) {
	ft := mustFatTree(t, 2, 4)
	order := CurveOrder(ft)
	for q, got := range order {
		if got != int32(q) {
			t.Fatalf("fat-tree order[%d] = %d, want rank order", q, got)
		}
	}
}

func mustHypercube(t *testing.T, d int) Topology {
	t.Helper()
	h, err := NewHypercube(d)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func mustFatTree(t *testing.T, arity, levels int) Topology {
	t.Helper()
	ft, err := NewFatTree(arity, levels)
	if err != nil {
		t.Fatal(err)
	}
	return ft
}

// refCurveOrder is CurveOrder as it stood before it shared sfc.Key and
// sfc.Rank with the task-side curves (at 3996d8b): its own key switch,
// an inline d-dimensional Morton loop, and its own (key, rank) sort.
func refCurveOrder(co Coordinated) []int32 {
	p := co.Nodes()
	order := make([]int32, p)
	for q := range order {
		order[q] = int32(q)
	}
	dims := co.Dims()
	maxExt := 0
	for _, d := range dims {
		if d > maxExt {
			maxExt = d
		}
	}
	k := bits.Len(uint(maxExt - 1))
	keys := make([]uint64, p)
	buf := make([]int, len(dims))
	for q := 0; q < p; q++ {
		co.Coord(q, buf)
		switch len(dims) {
		case 1:
			keys[q] = uint64(buf[0])
		case 2:
			keys[q] = sfc.HilbertEncode2(k, uint32(buf[0]), uint32(buf[1]))
		case 3:
			keys[q] = sfc.HilbertEncode3(k, uint32(buf[0]), uint32(buf[1]), uint32(buf[2]))
		default:
			var key uint64
			for lvl := k - 1; lvl >= 0; lvl-- {
				for i := len(buf) - 1; i >= 0; i-- {
					key = key<<1 | uint64(buf[i]>>uint(lvl)&1)
				}
			}
			keys[q] = key
		}
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if keys[a] != keys[b] {
			return keys[a] < keys[b]
		}
		return a < b
	})
	return order
}

// TestCurveOrderMatchesReference: the machine walk is bit-identical to
// refCurveOrder on grids of one to six dimensions, power-of-two and
// ragged extents, meshes and tori.
func TestCurveOrderMatchesReference(t *testing.T) {
	for _, dims := range [][]int{
		{1}, {16}, {7}, {8, 8}, {4, 6}, {5, 3}, {4, 4, 4}, {3, 5, 7},
		{2, 2, 2, 2}, {3, 4, 2, 5}, {2, 3, 2, 3, 2}, {2, 2, 2, 2, 2, 2},
	} {
		for _, co := range []Coordinated{MustMesh(dims...), MustTorus(dims...)} {
			got, want := CurveOrder(co), refCurveOrder(co)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s: order[%d] = %d, reference %d", co.Name(), i, got[i], want[i])
				}
			}
		}
	}
}
