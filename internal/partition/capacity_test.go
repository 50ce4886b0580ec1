package partition

import (
	"testing"

	"repro/internal/taskgraph"
)

// TestCapacityPartitionExactCounts checks every group's count on a mesh
// and on a LeanMD graph, whose uneven weights leave the multilevel phase
// far from equal counts (hybrid's eight equal blocks).
func TestCapacityPartitionExactCounts(t *testing.T) {
	mesh := taskgraph.Mesh2D(12, 12, 1e5)
	leanmd := taskgraph.LeanMD(8, 1e4, 1) // 3248 vertices
	for _, tc := range []struct {
		g       *taskgraph.Graph
		targets []int
	}{
		{mesh, []int{72, 72}},
		{mesh, []int{36, 36, 36, 36}},
		{mesh, []int{100, 20, 24}},
		{mesh, []int{1, 1, 142}},
		{leanmd, []int{406, 406, 406, 406, 406, 406, 406, 406}},
	} {
		g, targets := tc.g, tc.targets
		r, err := CapacityPartition(g, targets, Multilevel{Seed: 1})
		if err != nil {
			t.Fatalf("CapacityPartition(%v): %v", targets, err)
		}
		if err := r.Validate(g); err != nil {
			t.Fatalf("invalid partition for %v: %v", targets, err)
		}
		sizes := r.GroupSizes()
		for i, want := range targets {
			if sizes[i] != want {
				t.Fatalf("targets %v: group %d has %d vertices, want %d", targets, i, sizes[i], want)
			}
		}
	}
}

func TestCapacityPartitionDeterministic(t *testing.T) {
	g := taskgraph.RandomGeometricDeg(500, 8, 1e5, 7)
	targets := []int{200, 150, 150}
	a, err := CapacityPartition(g, targets, Multilevel{Seed: 3})
	if err != nil {
		t.Fatalf("CapacityPartition: %v", err)
	}
	b, err := CapacityPartition(g, targets, Multilevel{Seed: 3})
	if err != nil {
		t.Fatalf("CapacityPartition: %v", err)
	}
	for v := range a.Assign {
		if a.Assign[v] != b.Assign[v] {
			t.Fatalf("assignment differs at vertex %d: %d vs %d", v, a.Assign[v], b.Assign[v])
		}
	}
}

func TestCapacityPartitionEdges(t *testing.T) {
	g := taskgraph.Ring(8, 1e5)
	// Single group: everything in group 0.
	r, err := CapacityPartition(g, []int{8}, Multilevel{Seed: 1})
	if err != nil {
		t.Fatalf("k=1: %v", err)
	}
	for _, q := range r.Assign {
		if q != 0 {
			t.Fatalf("k=1 assigned group %d", q)
		}
	}
	// k == n: identity-like bijection.
	r, err = CapacityPartition(g, []int{1, 1, 1, 1, 1, 1, 1, 1}, Multilevel{Seed: 1})
	if err != nil {
		t.Fatalf("k=n: %v", err)
	}
	if err := r.Validate(g); err != nil {
		t.Fatalf("k=n invalid: %v", err)
	}
	// Errors: bad sums and zero targets.
	if _, err := CapacityPartition(g, []int{4, 5}, Multilevel{}); err == nil {
		t.Fatalf("mismatched sum accepted")
	}
	if _, err := CapacityPartition(g, []int{8, 0}, Multilevel{}); err == nil {
		t.Fatalf("zero target accepted")
	}
	if _, err := CapacityPartition(g, nil, Multilevel{}); err == nil {
		t.Fatalf("empty targets accepted")
	}
}

func TestCapacityPartitionCutQuality(t *testing.T) {
	// On a 16x16 mesh split in half, the exact-count split should stay
	// close to the optimal straight cut (16 edges), not degenerate to a
	// random half (~worst case hundreds).
	g := taskgraph.Mesh2D(16, 16, 1.0)
	r, err := CapacityPartition(g, []int{128, 128}, Multilevel{Seed: 1})
	if err != nil {
		t.Fatalf("CapacityPartition: %v", err)
	}
	if cut := r.EdgeCut(g); cut > 3*16 {
		t.Fatalf("half/half cut = %g edges, want <= 48", cut)
	}
}
