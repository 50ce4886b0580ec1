package topology

import "testing"

// TestClosedDistsLabelBoundary: ClosedDists answers from partial-cube
// labels exactly on the meshes and even tori whose labels fit 64 bits and
// on hypercubes, whose labels are their ranks, and from the coordinate
// table on the other meshes and tori; Labels returns the labels exactly
// then; and each shape's oracle answers Distance on every pair (on the
// rows of a few ranks for the 65 536-node machines).
func TestClosedDistsLabelBoundary(t *testing.T) {
	torus := func(dims ...int) Topology { return MustTorus(dims...) }
	mesh := func(dims ...int) Topology { return MustMesh(dims...) }
	cube := func(dim int) Topology { return MustHypercube(dim) }
	cases := []struct {
		m      Topology
		labels bool
	}{
		{torus(128), true},        // 64 bits
		{mesh(65), true},          // 64 bits
		{torus(64, 32, 32), true}, // 32+16+16 = 64 bits
		{torus(16, 16, 16), true},
		{torus(32, 32), true},
		{torus(2, 2), true},
		{torus(2), true},
		{mesh(1), true},
		{torus(1, 6, 1), true},
		{torus(4, 1, 2), true},
		{mesh(1, 5, 1, 3), true},
		{mesh(33, 33), true}, // 64 bits
		{cube(0), true},
		{cube(3), true},
		{cube(16), true},
		{torus(130), false}, // 65 bits
		{mesh(66), false},   // 65 bits
		{torus(64, 32, 34), false},
		{torus(4, 3), false}, // an odd ring is not a partial cube
		{torus(5), false},
		{mesh(33, 34), false},
	}
	for _, tc := range cases {
		t.Run(tc.m.Name(), func(t *testing.T) {
			d := ClosedDists(tc.m)
			if got := d.kind == distLabel; got != tc.labels {
				t.Fatalf("ClosedDists answers from labels: %v, want %v (kind %d)", got, tc.labels, d.kind)
			}
			if want := distGrid; !tc.labels && d.kind != want {
				t.Fatalf("ClosedDists kind %d, want the coordinate form", d.kind)
			}
			if got := d.Labels() != nil; got != tc.labels {
				t.Fatalf("Labels() != nil: %v, want %v", got, tc.labels)
			}
			rows := []int{0, tc.m.Nodes() / 3, tc.m.Nodes() - 1}
			if tc.m.Nodes() <= 4096 {
				rows = rows[:0]
				for a := 0; a < tc.m.Nodes(); a++ {
					rows = append(rows, a)
				}
			}
			for _, a := range rows {
				for b := 0; b < tc.m.Nodes(); b++ {
					if got, want := d.Dist(a, b), tc.m.Distance(a, b); got != want {
						t.Fatalf("Dist(%d,%d) = %d, Distance %d", a, b, got, want)
					}
				}
			}
		})
	}
}

// TestGridConstructionAllocsFlat: a grid's neighbour lists are rows of one
// array, so building a machine allocates a fixed number of objects, not
// one per node (torus:16,16 took 783 when each node had its own list).
func TestGridConstructionAllocsFlat(t *testing.T) {
	for _, dims := range [][]int{{16, 16}, {8, 8, 8}, {65}, {130}} {
		allocs := testing.AllocsPerRun(5, func() { MustTorus(dims...) })
		if allocs > 24 {
			t.Errorf("torus%v: %v allocations to build, want <= 24", dims, allocs)
		}
		allocs = testing.AllocsPerRun(5, func() { MustMesh(dims...) })
		if allocs > 24 {
			t.Errorf("mesh%v: %v allocations to build, want <= 24", dims, allocs)
		}
	}
	m := MustMesh(3, 4)
	for r := 0; r < m.Nodes(); r++ {
		if nb := m.Neighbors(r); cap(nb) != len(nb) {
			t.Fatalf("%s: Neighbors(%d) has cap %d past its len %d: an append would write a neighbour's row", m.Name(), r, cap(nb), len(nb))
		}
	}
}
