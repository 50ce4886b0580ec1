package hybrid_test

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"repro/internal/cliutil"
	"repro/internal/hybrid"
	"repro/internal/partition"
	"repro/internal/taskgraph"
)

// TestHybridPlaceHashes pins Hybrid's placements, task for task, on
// extras-front cells 1, 2, 5 (a quotient graph, cut as the front cuts it)
// and 13, on a 3-D torus with 2x2x2 blocks, and once at seed 3. The
// hashes were recorded while phase 1 ran its own count repair, before it
// called partition.CapacityPartition; the two repairs move the same
// tasks in the same order, so no hash may move.
func TestHybridPlaceHashes(t *testing.T) {
	cases := []struct {
		pattern, machine string
		block            []int
		seed             int64
		want             uint64
	}{
		{"mesh2d:8,8", "torus:8,8", []int{4, 4}, 1, 0x81c38d0b36b77125},
		{"rgg:64,6", "torus:8,8", []int{4, 4}, 1, 0x14c5225fff40ddc5},
		{"stencil9:32,32", "torus:8,8", []int{4, 4}, 1, 0xcb069fd83b083445},
		{"mesh2d:32,32", "torus:32,32", []int{4, 4}, 1, 0x4de64c5fedb8e74d},
		{"mesh3d:8,8,4", "torus:8,8,4", []int{2, 2, 2}, 1, 0x56ed32c170e712e5},
		{"rgg:256,8", "torus:16,16", []int{4, 4}, 3, 0xde1c44435e4987a5},
	}
	for _, tc := range cases {
		t.Run(tc.pattern+"/"+tc.machine, func(t *testing.T) {
			g, err := cliutil.ParsePattern(tc.pattern, 1e4, 1)
			if err != nil {
				t.Fatal(err)
			}
			topo, err := cliutil.ParseTopology(tc.machine)
			if err != nil {
				t.Fatal(err)
			}
			if g.NumVertices() > topo.Nodes() {
				g = quotient(t, g, topo.Nodes())
			}
			m, err := hybrid.Hybrid{Block: tc.block, Seed: tc.seed}.Map(g, topo)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Validate(g, topo); err != nil {
				t.Fatal(err)
			}
			sum := fnv.New64a()
			var b [8]byte
			for _, q := range m {
				binary.LittleEndian.PutUint64(b[:], uint64(q))
				sum.Write(b[:])
			}
			if got := sum.Sum64(); got != tc.want {
				t.Errorf("placement hash %#x, want %#x", got, tc.want)
			}
		})
	}
}

// quotient cuts g into one group per processor as the front table does.
func quotient(t *testing.T, g *taskgraph.Graph, p int) *taskgraph.Graph {
	t.Helper()
	pr, err := partition.Multilevel{Seed: 1}.Partition(g, p)
	if err != nil {
		t.Fatal(err)
	}
	q, err := partition.Quotient(g, pr)
	if err != nil {
		t.Fatal(err)
	}
	return q
}
