package taskgraph

import (
	"math"
	"testing"
	"testing/quick"
)

func TestScale(t *testing.T) {
	g := Mesh2D(3, 3, 100)
	h := Scale(g, 2.5)
	if h.TotalComm() != 2.5*g.TotalComm() {
		t.Errorf("scaled comm %v, want %v", h.TotalComm(), 2.5*g.TotalComm())
	}
	if h.TotalLoad() != g.TotalLoad() {
		t.Error("vertex weights changed")
	}
	defer func() {
		if recover() == nil {
			t.Error("want panic for negative factor")
		}
	}()
	Scale(g, -1)
}

func TestOverlayComposesPhases(t *testing.T) {
	halo := Mesh2D(4, 4, 100)
	coll := Butterfly(4, 50)
	g, err := Overlay(halo, coll)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(g.TotalComm()-(halo.TotalComm()+coll.TotalComm())) > 1e-9 {
		t.Errorf("overlay comm %v, want sum %v", g.TotalComm(), halo.TotalComm()+coll.TotalComm())
	}
	if math.Abs(g.TotalLoad()-(halo.TotalLoad()+coll.TotalLoad())) > 1e-9 {
		t.Error("overlay load wrong")
	}
	// Shared edges accumulate: mesh edge (0,1) plus butterfly edge (0,1).
	if got := g.EdgeWeight(0, 1); got != 150 {
		t.Errorf("edge(0,1) = %v, want 150", got)
	}
}

func TestOverlayErrors(t *testing.T) {
	if _, err := Overlay(); err == nil {
		t.Error("empty overlay: want error")
	}
	if _, err := Overlay(Ring(4, 1), Ring(5, 1)); err == nil {
		t.Error("size mismatch: want error")
	}
}

func TestPermuteRoundTrip(t *testing.T) {
	g := Random(12, 30, 1, 9, 4)
	perm := []int{3, 1, 4, 0, 5, 9, 2, 6, 8, 7, 11, 10}
	h, err := Permute(g, perm)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(h.TotalComm()-g.TotalComm()) > 1e-9 || math.Abs(h.TotalLoad()-g.TotalLoad()) > 1e-9 {
		t.Error("permute changed totals")
	}
	// Invert.
	inv := make([]int, len(perm))
	for v, p := range perm {
		inv[p] = v
	}
	back, err := Permute(h, inv)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 12; v++ {
		if back.VertexWeight(v) != g.VertexWeight(v) || back.Degree(v) != g.Degree(v) {
			t.Fatalf("double permutation not identity at %d", v)
		}
	}
}

func TestPermuteValidation(t *testing.T) {
	g := Ring(4, 1)
	if _, err := Permute(g, []int{0, 1}); err == nil {
		t.Error("short perm: want error")
	}
	if _, err := Permute(g, []int{0, 1, 1, 2}); err == nil {
		t.Error("duplicate: want error")
	}
	if _, err := Permute(g, []int{0, 1, 2, 9}); err == nil {
		t.Error("out of range: want error")
	}
}

func TestInduced(t *testing.T) {
	g := Mesh2D(3, 3, 10)
	pos := NewPositions(g.NumVertices())
	sub, err := Induced(g, []int{0, 1, 2}, pos) // top row path
	if err != nil {
		t.Fatal(err)
	}
	if sub.NumVertices() != 3 || sub.NumEdges() != 2 {
		t.Fatalf("shape (%d,%d)", sub.NumVertices(), sub.NumEdges())
	}
	if sub.EdgeWeight(0, 1) != 10 || sub.EdgeWeight(1, 2) != 10 {
		t.Error("induced edge weights wrong")
	}
	if sub.EdgeWeight(0, 2) != 0 {
		t.Error("unexpected induced edge 0-2")
	}
	if _, err := Induced(g, []int{0, 0}, pos); err == nil {
		t.Error("duplicate: want error")
	}
	if _, err := Induced(g, []int{42}, pos); err == nil {
		t.Error("out of range: want error")
	}
	if _, err := Induced(g, nil, pos); err == nil {
		t.Error("empty: want error")
	}
}

// Property: permutation preserves the degree multiset.
func TestPropertyPermutePreservesDegrees(t *testing.T) {
	f := func(seed int64) bool {
		g := Random(10, 25, 1, 5, seed)
		perm := make([]int, 10)
		for i := range perm {
			perm[i] = (i*7 + 3) % 10 // bijection since gcd(7,10)=1
		}
		h, err := Permute(g, perm)
		if err != nil {
			return false
		}
		var dg, dh [11]int
		for v := 0; v < 10; v++ {
			dg[g.Degree(v)]++
			dh[h.Degree(v)]++
		}
		return dg == dh
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
