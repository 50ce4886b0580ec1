package topology

import "testing"

// checkRoute verifies a route is a minimal, link-valid path from a to b.
func checkRoute(t *testing.T, tp Router, a, b int) {
	t.Helper()
	path := tp.Route(nil, a, b)
	if len(path) == 0 || path[0] != a || path[len(path)-1] != b {
		t.Fatalf("%s: Route(%d,%d) = %v, bad endpoints", tp.Name(), a, b, path)
	}
	if want := tp.Distance(a, b) + 1; len(path) != want {
		t.Fatalf("%s: Route(%d,%d) has %d nodes, want %d (minimal)", tp.Name(), a, b, len(path), want)
	}
	for i := 0; i+1 < len(path); i++ {
		adjacent := false
		for _, nb := range tp.Neighbors(path[i]) {
			if nb == path[i+1] {
				adjacent = true
				break
			}
		}
		if !adjacent {
			t.Fatalf("%s: Route(%d,%d) hop %d->%d is not a link", tp.Name(), a, b, path[i], path[i+1])
		}
	}
}

func TestRoutesAreMinimalAndValid(t *testing.T) {
	routers := []Router{
		MustMesh(4, 4), MustMesh(3, 3, 3), MustTorus(5, 5),
		MustTorus(4, 4, 4), MustTorus(2, 3), MustHypercube(4),
		FromTopology(MustMesh(4, 5)),
	}
	for _, tp := range routers {
		n := tp.Nodes()
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				checkRoute(t, tp, a, b)
			}
		}
	}
}

func TestRouteSelfIsSingleton(t *testing.T) {
	m := MustTorus(4, 4)
	path := m.Route(nil, 5, 5)
	if len(path) != 1 || path[0] != 5 {
		t.Errorf("Route(5,5) = %v, want [5]", path)
	}
}

func TestRouteAppendsToExistingSlice(t *testing.T) {
	m := MustMesh(3, 3)
	base := []int{42}
	path := m.Route(base, 0, 8)
	if path[0] != 42 {
		t.Errorf("Route clobbered prefix: %v", path)
	}
	if path[1] != 0 || path[len(path)-1] != 8 {
		t.Errorf("bad appended route: %v", path)
	}
}

func TestDimensionOrderedRouteIsDeterministic(t *testing.T) {
	to := MustTorus(6, 6)
	p1 := to.Route(nil, 3, 32)
	p2 := to.Route(nil, 3, 32)
	if len(p1) != len(p2) {
		t.Fatal("nondeterministic route length")
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatal("nondeterministic route")
		}
	}
}

func TestTorusRouteTakesShortWay(t *testing.T) {
	to := MustTorus(8)
	// 0 -> 6 should wrap backwards: 0, 7, 6.
	path := to.Route(nil, 0, 6)
	want := []int{0, 7, 6}
	if len(path) != len(want) {
		t.Fatalf("Route(0,6) = %v, want %v", path, want)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("Route(0,6) = %v, want %v", path, want)
		}
	}
}
