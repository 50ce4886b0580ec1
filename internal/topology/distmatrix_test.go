package topology

import (
	"testing"
)

// matrixTopologies returns one instance of every topology family, small
// enough for exhaustive all-pairs checks.
func matrixTopologies(t *testing.T) []Topology {
	t.Helper()
	g, err := NewGraph(7, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 0}, {1, 5}})
	if err != nil {
		t.Fatal(err)
	}
	return []Topology{
		MustMesh(4, 3),
		MustTorus(3, 3, 2),
		MustHypercube(4),
		g,
	}
}

func TestDistanceMatrixMatchesDistance(t *testing.T) {
	for _, to := range matrixTopologies(t) {
		m := NewDistanceMatrix(to)
		n := to.Nodes()
		if m.Nodes() != n {
			t.Fatalf("%s: matrix has %d nodes, want %d", to.Name(), m.Nodes(), n)
		}
		for a := 0; a < n; a++ {
			row := m.Row(a)
			for b := 0; b < n; b++ {
				want := to.Distance(a, b)
				if int(row[b]) != want {
					t.Fatalf("%s: Row(%d)[%d] = %d, want %d", to.Name(), a, b, row[b], want)
				}
			}
		}
	}
}

func TestCachedDistancesReturnsSameMatrix(t *testing.T) {
	to := MustTorus(5, 4)
	m1 := CachedDistances(to)
	m2 := CachedDistances(to)
	if m1 == nil || m1 != m2 {
		t.Fatalf("repeated CachedDistances on one instance: %p vs %p", m1, m2)
	}
	// A second instance with the same name and size shares the matrix.
	if m3 := CachedDistances(MustTorus(5, 4)); m3 != m1 {
		t.Errorf("same-shape torus got a different matrix: %p vs %p", m3, m1)
	}
}

// TestCachedDistancesDistinguishesEqualSizedGraphs: two explicit graphs
// with identical node/edge counts share a Name() but must not share
// distances.
func TestCachedDistancesDistinguishesEqualSizedGraphs(t *testing.T) {
	ring, err := NewGraph(5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}})
	if err != nil {
		t.Fatal(err)
	}
	star, err := NewGraph(5, [][2]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if ring.Name() != star.Name() {
		t.Fatalf("test premise broken: names %q vs %q differ", ring.Name(), star.Name())
	}
	mr, ms := CachedDistances(ring), CachedDistances(star)
	if mr == nil || ms == nil {
		t.Fatal("graph matrices not materialized")
	}
	if mr.Row(3)[4] != 1 || ms.Row(3)[4] != 2 {
		t.Errorf("graphs share a cache entry: ring d(3,4)=%d star d(3,4)=%d", mr.Row(3)[4], ms.Row(3)[4])
	}
}

func TestSetDistanceMatrixCapDisablesAndBounds(t *testing.T) {
	prev := SetDistanceMatrixCap(0)
	defer SetDistanceMatrixCap(prev)
	if m := CachedDistances(MustTorus(4, 4)); m != nil {
		t.Errorf("cap 0: CachedDistances = %p, want nil", m)
	}
	SetDistanceMatrixCap(100) // 10 nodes max
	if m := CachedDistances(MustTorus(4, 4)); m != nil {
		t.Errorf("cap 100: 16-node torus materialized anyway")
	}
	if m := CachedDistances(MustTorus(3, 3)); m == nil {
		t.Errorf("cap 100: 9-node torus should fit")
	}
}

// TestTotalDistancesMatrixAndFallbackAgree: the matrix-backed row sums
// must equal the Distance-backed ones exactly.
func TestTotalDistancesMatrixAndFallbackAgree(t *testing.T) {
	for _, to := range matrixTopologies(t) {
		n := to.Nodes()
		withMatrix := make([]float64, n)
		TotalDistances(to, withMatrix)

		prev := SetDistanceMatrixCap(0)
		fallback := make([]float64, n)
		TotalDistances(to, fallback)
		SetDistanceMatrixCap(prev)

		for p := 0; p < n; p++ {
			if withMatrix[p] != fallback[p] {
				t.Errorf("%s: TotalDistances[%d] = %v with matrix, %v without", to.Name(), p, withMatrix[p], fallback[p])
			}
		}
	}
}
