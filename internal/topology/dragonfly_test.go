package topology

import "testing"

func TestDragonflyShape(t *testing.T) {
	// a=4, h=2: g = 9 groups, 36 routers.
	d := MustDragonfly(4, 2)
	if d.Nodes() != 36 {
		t.Fatalf("Nodes() = %d, want 36", d.Nodes())
	}
	if d.Groups() != 9 || d.RoutersPerGroup() != 4 {
		t.Errorf("shape (%d,%d)", d.Groups(), d.RoutersPerGroup())
	}
	if d.Name() != "dragonfly(a=4,h=2,g=9)" {
		t.Errorf("Name() = %q", d.Name())
	}
}

func TestDragonflyDegrees(t *testing.T) {
	// Every router: a-1 local + h global links.
	d := MustDragonfly(4, 2)
	for v := 0; v < d.Nodes(); v++ {
		if got := len(d.Neighbors(v)); got != 5 {
			t.Fatalf("node %d: degree %d, want 5", v, got)
		}
	}
}

func TestDragonflyDiameterAtMostThree(t *testing.T) {
	for _, cfg := range [][2]int{{2, 1}, {4, 2}, {6, 2}} {
		d := MustDragonfly(cfg[0], cfg[1])
		if diam := d.Diameter(); diam > 3 {
			t.Errorf("dragonfly(%d,%d): diameter %d > 3", cfg[0], cfg[1], diam)
		}
	}
}

func TestDragonflyEveryGroupPairLinkedOnce(t *testing.T) {
	d := MustDragonfly(3, 2) // g = 7
	links := make(map[[2]int]int)
	for v := 0; v < d.Nodes(); v++ {
		for _, u := range d.Neighbors(v) {
			g1, g2 := d.Group(v), d.Group(u)
			if g1 < g2 {
				links[[2]int{g1, g2}]++
			}
		}
	}
	for g1 := 0; g1 < 7; g1++ {
		for g2 := g1 + 1; g2 < 7; g2++ {
			if got := links[[2]int{g1, g2}]; got != 1 {
				t.Errorf("groups (%d,%d): %d global links, want 1", g1, g2, got)
			}
		}
	}
}

func TestDragonflyValidation(t *testing.T) {
	if _, err := NewDragonfly(0, 1); err == nil {
		t.Error("a=0: want error")
	}
	if _, err := NewDragonfly(1, 0); err == nil {
		t.Error("h=0: want error")
	}
	if _, err := NewDragonfly(2048, 2048); err == nil {
		t.Error("huge: want error")
	}
}

func TestDragonflyIntraGroupDistanceOne(t *testing.T) {
	d := MustDragonfly(4, 2)
	for r1 := 0; r1 < 4; r1++ {
		for r2 := r1 + 1; r2 < 4; r2++ {
			if got := d.Distance(r1, r2); got != 1 {
				t.Errorf("intra-group distance(%d,%d) = %d, want 1", r1, r2, got)
			}
		}
	}
}
