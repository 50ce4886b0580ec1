package core

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/taskgraph"
	"repro/internal/topology"
)

// TestPropertySwapDeltaMatchesRecomputation: the incremental swap delta
// must equal the brute-force hop-bytes difference.
func TestPropertySwapDeltaMatchesRecomputation(t *testing.T) {
	g := taskgraph.Random(20, 70, 1, 10, 9)
	to := topology.MustTorus(4, 5)
	m, err := Random{Seed: 4}.Map(g, to)
	if err != nil {
		t.Fatal(err)
	}
	f := func(aa, bb uint8) bool {
		a, b := int(aa)%20, int(bb)%20
		if a == b {
			return true
		}
		before := HopBytes(g, to, m)
		d := topology.NewDists(to)
		delta := SwapDelta(g, &d, m, a, b)
		m[a], m[b] = m[b], m[a]
		after := HopBytes(g, to, m)
		m[a], m[b] = m[b], m[a] // restore
		return math.Abs((after-before)-delta) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestPropertyHopBytesInvariantUnderTaskRelabeling: permuting task ids
// (and the mapping with them) leaves hop-bytes unchanged.
func TestPropertyHopBytesInvariantUnderTaskRelabeling(t *testing.T) {
	f := func(seed int64) bool {
		g := taskgraph.Random(16, 48, 1, 8, seed)
		to := topology.MustTorus(4, 4)
		m, err := Random{Seed: seed}.Map(g, to)
		if err != nil {
			return false
		}
		hb := HopBytes(g, to, m)
		// Relabel tasks by a rotation: new task i is old task (i+1) mod n.
		b := taskgraph.NewBuilder(16)
		for v := 0; v < 16; v++ {
			adj, w := g.Neighbors(v)
			for i, u := range adj {
				if int32(v) < u {
					b.AddEdge((v+1)%16, (int(u)+1)%16, w[i])
				}
			}
		}
		g2 := b.Build("relabel")
		m2 := make(Mapping, 16)
		for v := 0; v < 16; v++ {
			m2[(v+1)%16] = m[v]
		}
		return math.Abs(HopBytes(g2, to, m2)-hb) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestPropertyHopBytesLowerBoundTotalComm: on a connected topology every
// inter-processor byte travels at least one hop, so HB >= TotalComm for
// any bijective mapping (no two tasks share a processor).
func TestPropertyHopBytesLowerBoundTotalComm(t *testing.T) {
	to := topology.MustTorus(4, 4)
	f := func(seed int64) bool {
		g := taskgraph.Random(16, 50, 1, 10, seed)
		m, err := Random{Seed: seed}.Map(g, to)
		if err != nil {
			return false
		}
		return HopBytes(g, to, m) >= g.TotalComm()-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestPropertyRefineMonotonic: refinement never increases hop-bytes,
// regardless of the starting mapping.
func TestPropertyRefineMonotonic(t *testing.T) {
	to := topology.MustMesh(4, 4)
	f := func(seed int64) bool {
		g := taskgraph.Random(16, 40, 1, 10, seed)
		m, err := Random{Seed: seed}.Map(g, to)
		if err != nil {
			return false
		}
		before := HopBytes(g, to, m)
		Refine(g, to, m, 4)
		return HopBytes(g, to, m) <= before+1e-9 && m.Validate(g, to) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
